"""Acceptance suite: one test per shipping criterion.

Every test prints a single ``[criterion NN] PASS/FAIL`` line (run with
``-s`` to see them as they happen) and then asserts, so a red test and a
FAIL line always travel together. Heavy artifacts (the rooms and ring
hierarchies) are built once per module; the small benchmark fixtures come
from conftest.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import LAM, R_STEP, TWIN_WEIGHT, augmented_stacked
from reference import circular_spread, grounded_subtasks, solve_iterative
from subtask_forge.analysis import boundary_score, purity_report
from subtask_forge.cli import main as cli_main
from subtask_forge.domains import (
    RingSpec,
    RoomsSpec,
    TaxiSpec,
    build_ring,
    room_quadrant_of,
    rooms_room_labels,
    taxi_block_labels,
)
from subtask_forge.factorize import Factorization, NmfOptions, nmf, select_k
from subtask_forge.fileio import write_matrix_csv
from subtask_forge.hierarchy import (
    augment_with_subtasks,
    build_hierarchy,
    derive_higher_layer,
)
from subtask_forge.lmdp_core import _FiniteExitSystem
from subtask_forge.multitask import solve_task_basis


def report(num: int, ok: bool, text: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    return ok


@pytest.fixture(scope="module")
def ring_lmdp():
    return build_ring(RingSpec(256), R_STEP, LAM, TWIN_WEIGHT)


@pytest.fixture(scope="module")
def rooms_hier(rooms_lmdp):
    return build_hierarchy(rooms_lmdp, [16, 4], [0.1, 0.1], beta=1.0,
                           opts=NmfOptions(seed=0, restarts=10))


@pytest.fixture(scope="module")
def ring_hier(ring_lmdp):
    return build_hierarchy(ring_lmdp, [64, 16, 4], [0.1, 0.1, 0.1], beta=1.0,
                           opts=NmfOptions(seed=0, restarts=10))


def _residual(L, z, q):
    g = L.exp_rewards()
    return z - g * (L.dynamics.ii.toarray().T @ z + L.dynamics.bi.toarray().T @ q)


def test_criterion_01_solver_equivalence(rooms_lmdp, taxi_lmdp, ring_lmdp):
    t0 = time.perf_counter()
    worst_rel, worst_res = 0.0, 0.0
    for L in (rooms_lmdp, taxi_lmdp, ring_lmdp):
        q = np.random.default_rng(0).uniform(0.5, 1.5, L.n_boundary)
        z_direct = _FiniteExitSystem(L).solve(q[:, None])[:, 0]
        z_iter = solve_iterative(L, q)
        worst_rel = max(worst_rel, np.max(np.abs(z_iter - z_direct) / z_direct))
        worst_res = max(worst_res, np.max(np.abs(_residual(L, z_direct, q))))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-9 and worst_res <= 1e-10 and elapsed < 10.0
    assert report(1, ok, f"direct vs iterative rel {worst_rel:.2e}, "
                         f"residual {worst_res:.2e}, {elapsed:.1f}s")


def test_criterion_02_compositionality(rooms_lmdp, rooms_Z):
    t0 = time.perf_counter()
    L = rooms_lmdp
    Q = np.maximum(np.eye(L.n_boundary), 1e-12)  # the floored basis tasks
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        w = rng.uniform(0.0, 1.0, L.n_boundary)
        z_comp = rooms_Z @ w
        z_direct = _FiniteExitSystem(L).solve((Q @ w)[:, None])[:, 0]
        worst = max(worst, np.max(np.abs(z_comp - z_direct) / z_direct))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    assert report(2, ok, f"100 task blends, worst rel {worst:.2e}, "
                         f"{elapsed:.1f}s")


def test_criterion_03_monotone_descent(taxi_Z):
    worst = np.inf  # smallest relative drop seen; negative would mean a rise
    for beta in (0.0, 1.0, 2.0):
        for seed in range(10):
            F = nmf(taxi_Z, 5, beta, NmfOptions(seed=seed, restarts=1))
            t = F.divergence_trace
            rel = (t[:-1] - t[1:]) / np.maximum(t[:-1], 1e-300)
            worst = min(worst, float(rel.min()))
    ok = worst >= -1e-12
    assert report(3, ok, f"30 traces, smallest relative drop {worst:.2e}")


def test_criterion_04_synthetic_recovery():
    rng = np.random.default_rng(42)
    D0 = rng.uniform(0.5, 1.5, (100, 4))
    W0 = rng.uniform(0.5, 1.5, (4, 80))
    F = nmf(D0 @ W0, 4, 1.0, NmfOptions(seed=0, restarts=10, max_iter=20000))
    ok = F.normalized_divergence <= 1e-6
    assert report(4, ok, f"rank-4 product refit, normalized divergence "
                         f"{F.normalized_divergence:.2e}")


def test_criterion_05_taxi_rank_selection(taxi_Z):
    t0 = time.perf_counter()
    picks = [select_k(taxi_Z, 1.0, 10, NmfOptions(seed=g, restarts=10)).k_star
             for g in range(5)]
    elapsed = time.perf_counter() - t0
    hits = sum(1 for k in picks if k == 5)
    ok = hits >= 4 and elapsed < 300.0
    assert report(5, ok, f"picks {picks}, {hits}/5 chose 5, {elapsed:.0f}s")


def test_criterion_06_taxi_block_alignment(taxi_Z):
    F = nmf(taxi_Z, 5, 1.0, NmfOptions(seed=0, restarts=10))
    labels = taxi_block_labels(TaxiSpec())
    d_hat = F.D / F.D.sum(axis=0, keepdims=True)
    masses, homes = [], []
    for t in range(5):
        per_block = np.bincount(labels, weights=d_hat[:, t], minlength=5)
        masses.append(float(per_block.max()))
        homes.append(int(per_block.argmax()))
    ok = min(masses) >= 0.8 and sorted(homes) == [0, 1, 2, 3, 4]
    assert report(6, ok, f"block masses {[round(m, 3) for m in masses]}, "
                         f"home blocks {homes}")


def test_criterion_07_rooms_purity(rooms_fact16):
    purity = purity_report(rooms_fact16, rooms_room_labels(RoomsSpec(4, 4, 5)))["purity"]
    ok = purity >= 0.9
    assert report(7, ok, f"16 subtasks vs 16 rooms, purity {purity:.3f}")


def test_criterion_08_hierarchy_quadrants(rooms_hier):
    spec = RoomsSpec(4, 4, 5)
    rooms = rooms_room_labels(spec)
    d0 = rooms_hier.layers[0].d_hat  # 400 cells x 16 subtasks
    quadrant_of_subtask = np.empty(16, dtype=int)
    for t in range(16):
        per_room = np.bincount(rooms, weights=d0[:, t], minlength=16)
        quadrant_of_subtask[t] = room_quadrant_of(spec, int(per_room.argmax()))
    purity = purity_report(rooms_hier.layers[1].factorization,
                           quadrant_of_subtask)["purity"]
    ok = purity >= 0.9
    assert report(8, ok, f"4 level-2 subtasks vs quadrants, purity {purity:.3f}, "
                         f"subtasks per quadrant "
                         f"{np.bincount(quadrant_of_subtask, minlength=4).tolist()}")


def test_criterion_09_doorway_scores(rooms_fact16, rooms_lmdp):
    rooms = rooms_room_labels(RoomsSpec(4, 4, 5))
    P = rooms_lmdp.dynamics.ii
    cross = rooms[P.rows] != rooms[P.cols]
    doorway_cells = set(P.rows[cross]) | set(P.cols[cross])
    n_doorways = int(cross.sum()) // 2  # each doorway contributes two edges
    g = boundary_score(rooms_fact16, rooms_lmdp)
    top = set(np.argsort(-g, kind="stable")[:2 * n_doorways].tolist())
    found = len(doorway_cells & top)
    ok = doorway_cells <= top
    assert report(9, ok, f"{found}/{len(doorway_cells)} doorway cells in the "
                         f"top {2 * n_doorways} scores")


def test_criterion_10_ring_spread_growth(ring_hier):
    means = [circular_spread(grounded_subtasks(ring_hier, l), 256).mean()
             for l in range(3)]
    ok = means[0] < means[1] < means[2]
    assert report(10, ok, f"mean spreads per level "
                          f"{[round(m, 4) for m in means]}")


def _mc_absorption(layer, t_col, n_walks, rng):
    stacked = augmented_stacked(layer)
    n_i, n_b = layer.base.n_interior, layer.base.n_boundary
    cum = np.cumsum(stacked, axis=0)
    cum[-1, :] = 1.0
    state = rng.choice(n_i, size=n_walks, p=layer.d_hat[:, t_col])
    counts = np.zeros(n_b + layer.k)
    while state.size:
        u = rng.random(state.size)
        nxt = (cum[:, state].T > u[:, None]).argmax(axis=1)
        done = nxt >= n_i
        where, c = np.unique(nxt[done] - n_i, return_counts=True)
        counts[where] += c
        state = nxt[~done]
    freq = counts / n_walks
    return np.concatenate([freq[n_b:], freq[:n_b]])


def test_criterion_11_higher_layer_absorption():
    # 12-state toy: 6 ring cells with twin exits, two half-ring subtasks
    L = build_ring(RingSpec(6), -1.0, 5.0, 0.25)
    D = np.zeros((6, 2))
    D[:3, 0] = D[3:, 1] = 1.0
    F = Factorization(D=D, W=D.T.copy(), beta=1.0, k=2, divergence=0.0,
                      normalized_divergence=0.0, seed=0, restarts=1,
                      iterations=0, converged=True, best_restart=0)
    layer = augment_with_subtasks(L, F, 0.6)
    top = derive_higher_layer(layer)
    P = np.vstack([top.dynamics.ii.toarray(), top.dynamics.bi.toarray()])

    # raw absorption sums, before the library's exact renormalization
    M = np.eye(6) - layer.scaled.ii.toarray().T
    absorb = np.hstack([layer.P_t.T, layer.scaled.bi.toarray().T])
    raw = np.linalg.solve(M, absorb).T @ layer.d_hat
    sums_ok = np.max(np.abs(raw.sum(axis=0) - 1.0)) <= 1e-10

    rng = np.random.default_rng(8)
    n_walks = 100_000
    mc_ok = True
    for t in range(2):
        freq = _mc_absorption(layer, t, n_walks, rng)
        se = np.sqrt(P[:, t] * (1.0 - P[:, t]) / n_walks)
        exact = se == 0
        mc_ok &= bool(np.array_equal(freq[exact], P[exact, t]))
        mc_ok &= bool(np.all(np.abs(freq[~exact] - P[~exact, t]) <= 3 * se[~exact]))
    ok = sums_ok and mc_ok
    assert report(11, ok, f"column sums within {np.max(np.abs(raw.sum(axis=0) - 1.0)):.1e}, "
                          f"Monte-Carlo within 3 standard errors: {mc_ok}")


def test_criterion_12_determinism(taxi_Z, tmp_path):
    z_path = tmp_path / "Z.csv"
    write_matrix_csv(z_path, taxi_Z)
    runner = CliRunner()
    outs = []
    for name in ("a", "b"):
        res = runner.invoke(cli_main, ["factor", str(z_path),
                                       str(tmp_path / name), "--k", "5",
                                       "--restarts", "2", "--max-iter", "300"])
        assert res.exit_code == 0, res.output + res.stderr
        outs.append(tmp_path / name)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("D.csv", "W.csv", "meta.json"))
    ok = same
    assert report(12, ok, "repeated factor runs byte-identical on "
                          "D.csv, W.csv, meta.json")
