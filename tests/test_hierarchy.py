"""Subtask augmentation, higher-layer derivation and the full stack.

The toy fixtures are small enough that absorption probabilities have two
independent checks: a dense linear solve done right here in the tests, and
(for the ring toy) brute-force Monte-Carlo rollouts of the augmented chain.
"""

import dataclasses
import json
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    at_blas_threads,
    augmented_stacked,
    equal_dynamics,
    read_hierarchy,
    singular_on_both_solvers,
    write_hierarchy,
)
from reference import grounded_subtasks
from subtask_forge import fileio, lmdp_core
from subtask_forge.analysis import boundary_score
from subtask_forge.domains import RingSpec, RoomsSpec, build_ring, build_rooms
from subtask_forge.errors import AlphaRangeError, FactorRankError
from subtask_forge.factorize import Factorization, NmfOptions, select_k
from subtask_forge.hierarchy import (
    ABSORPTION_TOL,
    augment_with_subtasks,
    build_hierarchy,
    derive_higher_layer,
    normalized_columns,
)
from subtask_forge.lmdp_core import Lmdp
from subtask_forge.multitask import solve_task_basis
from test_lmdp_core import random_lmdps, resaved_bytes


def fact(D, W=None) -> Factorization:
    D = np.asarray(D, dtype=float)
    W = D.T.copy() if W is None else np.asarray(W, dtype=float)
    return Factorization(
        D=D, W=W, beta=1.0, k=D.shape[1], divergence=0.0,
        normalized_divergence=0.0, seed=0, restarts=1, iterations=0,
        converged=True, best_restart=0,
    )


def strip_subtasks(layer) -> Lmdp:
    """The layer's base LMDP rebuilt from its scaled dynamics."""
    inv = 1.0 / (1.0 - layer.alpha * layer.d_hat.sum(axis=1))
    return replace(layer.base, P_ii=layer.scaled_ii.scale_columns(inv),
                   P_bi=layer.scaled_bi.scale_columns(inv))


def toy_lmdp() -> Lmdp:
    # 3 interior, 2 boundary; every column keeps 0.5 inside and exits 0.5.
    P_ii = np.array([
        [0.0, 0.3, 0.2],
        [0.4, 0.0, 0.3],
        [0.1, 0.2, 0.0],
    ])
    P_bi = np.array([
        [0.3, 0.2, 0.1],
        [0.2, 0.3, 0.4],
    ])
    return Lmdp(3, 2, P_ii, P_bi, r_interior=np.array([-1.0, -2.0, -3.0]), lam=1.0,
                labels=("a", "b", "c", "exit:a", "exit:b"))


# Column masses 3 and 4; row sums of d_hat are [2/3, 7/12, 3/4].
TOY_D = np.array([
    [2.0, 0.0],
    [1.0, 1.0],
    [0.0, 3.0],
])


def test_normalized_columns():
    d_hat = normalized_columns(TOY_D)
    assert np.array_equal(d_hat, TOY_D / np.array([3.0, 4.0])[None, :])
    assert np.allclose(d_hat.sum(axis=0), 1.0, atol=1e-15)
    with pytest.raises(ValueError, match="positive mass"):
        normalized_columns(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_alpha_max_hand_value():
    # heaviest row sum is 3/4, so alpha may approach but not reach 4/3
    augment_with_subtasks(toy_lmdp(), fact(TOY_D), np.nextafter(4.0 / 3.0, 0.0))
    with pytest.raises(AlphaRangeError) as info:
        augment_with_subtasks(toy_lmdp(), fact(TOY_D), 4.0 / 3.0)
    assert info.value.alpha_max == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_augment_hand_oracle():
    L = toy_lmdp()
    alpha = 0.5
    layer = augment_with_subtasks(L, fact(TOY_D), alpha)

    d_hat = TOY_D / TOY_D.sum(axis=0, keepdims=True)
    assert np.array_equal(layer.d_hat, d_hat)
    assert layer.k == 2
    assert layer.alpha == alpha

    # original rows shrink by exactly the mass diverted into subtask states
    scale = 1.0 - alpha * d_hat.sum(axis=1)
    assert np.array_equal(layer.scaled_ii.toarray(),
                          L.P_ii.toarray() * scale[None, :])
    assert np.array_equal(layer.scaled_bi.toarray(),
                          L.P_bi.toarray() * scale[None, :])
    assert layer.scaled_ii.vals.size == L.P_ii.vals.size

    stacked = augmented_stacked(layer)
    assert stacked.shape == (3 + 2 + 2, 3)
    assert np.allclose(stacked.sum(axis=0), 1.0, atol=1e-12)

    with pytest.raises(ValueError):
        layer.d_hat[0, 0] = 9.9


def test_alpha_zero_roundtrip_is_bit_exact():
    L = toy_lmdp()
    layer = augment_with_subtasks(L, fact(TOY_D), 0.0)
    back = strip_subtasks(layer)
    assert equal_dynamics(back, L)
    assert np.array_equal(back.r_interior, L.r_interior)
    assert back.lam == L.lam


def test_nonzero_alpha_roundtrip():
    L = toy_lmdp()
    back = strip_subtasks(augment_with_subtasks(L, fact(TOY_D), 0.7))
    assert np.allclose(back.P_ii.toarray(), L.P_ii.toarray(),
                       rtol=1e-14, atol=0)
    assert np.allclose(back.P_bi.toarray(), L.P_bi.toarray(),
                       rtol=1e-14, atol=0)


def test_alpha_out_of_range():
    L = toy_lmdp()
    F = fact(TOY_D)
    for bad in (4.0 / 3.0, 2.0, -0.1):
        with pytest.raises(AlphaRangeError, match="outside") as info:
            augment_with_subtasks(L, F, bad)
        assert info.value.alpha_max == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_augment_rejects_row_mismatch():
    with pytest.raises(ValueError, match="interior states"):
        augment_with_subtasks(toy_lmdp(), fact(np.ones((4, 2))), 0.1)


def test_both_solvers_report_a_leaking_layer_alike():
    # states 1 and 2 pass their walk to each other and carry no subtask
    # mass, so a walk started there is never absorbed
    L = Lmdp(
        3, 1,
        P_ii=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        P_bi=np.array([[0.5, 0.0, 0.0]]),
        r_interior=np.zeros(3),
    )
    layer = augment_with_subtasks(L, fact([[1.0], [0.0], [0.0]]), 0.5)
    dense, lu = singular_on_both_solvers(lambda: derive_higher_layer(layer))
    assert dense == lu
    assert dense.startswith("absorption system is singular")


def test_derived_layer_matches_dense_inverse():
    L = toy_lmdp()
    layer = augment_with_subtasks(L, fact(TOY_D), 0.5)
    top = derive_higher_layer(layer)

    # oracle: hitting probabilities of the absorbing augmented chain,
    # H[s, j] = P(absorbed at j | start s), via a dense solve
    n, k, n_b = 3, 2, 2
    M = np.eye(n) - layer.scaled_ii.toarray().T
    absorb = np.hstack([layer.alpha * layer.d_hat, layer.scaled_bi.toarray().T])
    H = np.linalg.solve(M, absorb)
    oracle = H.T @ layer.d_hat

    # absorption is certain, so oracle columns sum to 1 before any cleanup
    assert np.all(np.abs(oracle.sum(axis=0) - 1.0) < 1e-10)

    got = np.vstack([top.P_ii.toarray(), top.P_bi.toarray()])
    assert got.shape == (k + n_b, k)
    assert np.allclose(got, oracle, rtol=1e-12, atol=1e-15)
    assert np.allclose(got.sum(axis=0), 1.0, atol=1e-12)

    assert top.labels == ("subtask(0)", "subtask(1)", "exit:a", "exit:b")
    assert np.array_equal(top.r_interior, layer.d_hat.T @ L.r_interior)
    assert top.lam == L.lam


def test_derive_requires_positive_alpha():
    layer = augment_with_subtasks(toy_lmdp(), fact(TOY_D), 0.0)
    with pytest.raises(ValueError, match="alpha > 0"):
        derive_higher_layer(layer)


@given(random_lmdps(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=200)
def test_derived_columns_sum_to_one(case, k, seed, fraction):
    # criterion 11: for any positive D and 0 < alpha < alpha_max, walks from
    # each footprint are absorbed with probability 1
    L, _ = case
    D = np.random.default_rng(seed).uniform(1e-3, 1.0, (L.n_interior, k))
    alpha = fraction / normalized_columns(D).sum(axis=1).max()
    assume(alpha > 0)  # a subnormal fraction can round alpha to 0
    top = derive_higher_layer(augment_with_subtasks(L, fact(D), alpha))
    P = np.vstack([top.P_ii.toarray(), top.P_bi.toarray()])
    assert P.shape == (k + L.n_boundary, k) and np.all(P >= 0)
    assert np.all(np.abs(P.sum(axis=0) - 1.0) <= ABSORPTION_TOL)


@given(random_lmdps(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_both_solvers_derive_the_same_layer(case, k, seed):
    # the dense inverse and splu, forced by a size constant of 0, give the
    # same absorption probabilities to a few ulps
    L, _ = case
    D = np.random.default_rng(seed).uniform(1e-3, 1.0, (L.n_interior, k))
    layer = augment_with_subtasks(L, fact(D), 0.5 / normalized_columns(D).sum(axis=1).max())
    tops = [derive_higher_layer(layer)]
    with mock.patch.object(lmdp_core, "DENSE_MAX_STATES", 0):
        tops.append(derive_higher_layer(layer))
    dense, lu = (np.vstack([top.P_ii.toarray(), top.P_bi.toarray()])
                 for top in tops)
    assert np.max(np.abs(dense - lu)) <= 1e-12


def _mc_absorption(layer, t_col: int, n_walks: int, rng) -> np.ndarray:
    """Empirical absorption distribution of walks started from d_hat[:, t_col].

    Returns frequencies ordered like the derived dynamics: k subtask rows
    first, then boundary rows.
    """
    stacked = augmented_stacked(layer)
    n_i = layer.base.n_interior
    n_b = layer.base.n_boundary
    cum = np.cumsum(stacked, axis=0)
    cum[-1, :] = 1.0  # close the fp gap at the top of each column
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


def test_derived_layer_matches_monte_carlo():
    # 12-state ring toy: 6 interior cells, 6 twin exits, two half-ring subtasks
    L = build_ring(RingSpec(6), -1.0, 5.0, 0.25)
    D = np.array([
        [1.0, 0.0], [1.0, 0.0], [1.0, 0.0],
        [0.0, 1.0], [0.0, 1.0], [0.0, 1.0],
    ])
    layer = augment_with_subtasks(L, fact(D), 0.6)
    top = derive_higher_layer(layer)
    P = np.vstack([top.P_ii.toarray(), top.P_bi.toarray()])

    # frozen seed; worst entry sits under 1 standard error for this draw
    rng = np.random.default_rng(8)
    n_walks = 100_000
    for t in range(2):
        freq = _mc_absorption(layer, t, n_walks, rng)
        se = np.sqrt(P[:, t] * (1.0 - P[:, t]) / n_walks)
        exact = se == 0
        assert np.array_equal(freq[exact], P[exact, t])
        assert np.all(np.abs(freq[~exact] - P[~exact, t]) <= 3.0 * se[~exact])


BENCH = dict(r_step=-1.0, lam=20.0, twin_weight=0.01)


@pytest.fixture(scope="module")
def small_hierarchy():
    L = build_rooms(RoomsSpec(2, 2, 3), **BENCH)
    return build_hierarchy(L, [4, 2], [0.1, 0.1], beta=1.0,
                           opts=NmfOptions(seed=0, restarts=3))


def test_build_hierarchy_shapes(small_hierarchy):
    H = small_hierarchy
    assert H.depth == 2
    assert [layer.k for layer in H.layers] == [4, 2]
    assert [layer.alpha for layer in H.layers] == [0.1, 0.1]
    assert H.layers[0].base.n_interior == 36
    assert H.layers[1].base.n_interior == 4  # previous level's subtask count
    assert H.layers[1].base.n_boundary == 36
    assert H.top.n_interior == 2
    assert H.top.n_boundary == 36
    # each derived level keeps exit labels from the ground domain
    assert H.layers[1].base.labels[:4] == tuple(
        f"subtask({t})" for t in range(4))
    assert H.top.labels[2] == "exit:cell(0,0)"


def test_grounding_chain(small_hierarchy):
    H = small_hierarchy
    G0 = grounded_subtasks(H, 0)
    assert np.array_equal(G0, H.layers[0].d_hat)
    assert not np.shares_memory(G0, H.layers[0].d_hat)
    G = grounded_subtasks(H, 1)
    assert np.array_equal(G, H.layers[0].d_hat @ H.layers[1].d_hat)
    assert G.shape == (36, 2)
    # product of column-stochastic maps stays column-stochastic
    assert np.allclose(G.sum(axis=0), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        grounded_subtasks(H, 2)


@pytest.mark.skipif(fileio._blas_threads() is None,
                    reason="no OpenBLAS thread setter in this process")
def test_hierarchy_has_the_same_bits_at_any_blas_thread_count(rooms_lmdp):
    # level 0's fit splits; level 1's fit is below the split floor, and the
    # derived levels' products lie outside any fit
    opts = NmfOptions(seed=1, restarts=2, max_iter=50, tol=0.0)
    stacks = at_blas_threads(lambda: build_hierarchy(rooms_lmdp, (16, 4), (0.1, 0.1), 1.0, opts))

    def arrays(H):
        lmdps = [layer.base for layer in H.layers[1:]] + [H.top]
        return ([a for layer in H.layers for a in (layer.factorization.D, layer.factorization.W,
                                                   layer.factorization.divergence_trace)]
                + [a for L in lmdps for a in (L.P_ii.toarray(), L.P_bi.toarray(), L.r_interior)])

    for H in stacks[:2]:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(H), arrays(stacks[2])))


def test_hierarchy_schedule_validation():
    L = build_rooms(RoomsSpec(2, 2, 3), **BENCH)
    with pytest.raises(ValueError, match="equal nonzero length"):
        build_hierarchy(L, [4], [0.1, 0.1])
    with pytest.raises(ValueError, match="equal nonzero length"):
        build_hierarchy(L, [], [])
    with pytest.raises(ValueError, match="positive"):
        build_hierarchy(L, [4, 2], [0.1, 0.0])


def test_hierarchy_annotates_failing_level():
    L = build_rooms(RoomsSpec(2, 2, 3), **BENCH)
    opts = NmfOptions(seed=0, restarts=1, max_iter=50)
    with pytest.raises(AlphaRangeError, match="level 1:") as info:
        build_hierarchy(L, [4, 2], [0.1, 50.0], opts=opts)
    assert 0.0 < info.value.alpha_max < 50.0
    assert str(info.value).count("level 1: ") == 1
    # rank too large for the level-1 basis (4 interior states) fails there too
    with pytest.raises(FactorRankError, match="level 1:") as info:
        build_hierarchy(L, [4, 9], [0.1, 0.1], opts=opts)
    assert str(info.value).count("level 1: ") == 1


def test_write_read_roundtrip(tmp_path, small_hierarchy):
    H = small_hierarchy
    out = tmp_path / "stack"
    write_hierarchy(out, H)

    for name in ("hierarchy.json", "top.json", "level_0/lmdp.json",
                 "level_0/D.csv", "level_0/W.csv", "level_0/meta.json",
                 "level_1/lmdp.json", "level_1/D.csv"):
        assert (out / name).is_file(), name

    R = read_hierarchy(out)
    manifest = json.loads((out / "hierarchy.json").read_text())
    assert manifest["k_schedule"] == [layer.k for layer in R.layers] == [4, 2]
    assert manifest["alpha_schedule"] == [layer.alpha for layer in R.layers]
    assert [manifest["beta"]] * 2 == [layer.factorization.beta for layer in R.layers]
    assert [manifest["seed"]] * 2 == [layer.factorization.seed for layer in R.layers]
    assert equal_dynamics(R.top, H.top)
    for got, want in zip(R.layers, H.layers):
        # CSV holds full repr precision, so recomputed tensors match bit for bit
        assert np.array_equal(got.d_hat, want.d_hat)
        assert got.alpha == want.alpha
        assert equal_dynamics(got.base, want.base)
        assert np.array_equal(got.scaled_ii.toarray(), want.scaled_ii.toarray())


def arrays_of(obj, path="record"):
    """(path, array) of every numpy array a record holds, through nested
    records and tuples."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from arrays_of(getattr(obj, field.name), f"{path}.{field.name}")
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from arrays_of(item, f"{path}[{i}]")


def test_returned_arrays_are_read_only(tmp_path, small_hierarchy):
    # a frozen record's arrays are read-only too, whether built or read back
    H = small_hierarchy
    write_hierarchy(tmp_path / "stack", H)
    R = read_hierarchy(tmp_path / "stack")
    L = H.layers[0].base
    returned = {
        "built": H,  # nmf's D, W and trace; Lmdp, Triplets and d_hat
        "read": R,  # load_lmdp's Lmdp and read_factorization's D and W
        "select_k": select_k(solve_task_basis(L), 1.0, 3,
                             NmfOptions(seed=0, restarts=1, max_iter=20)),
        "boundary_score": boundary_score(H.layers[0].factorization, L),
    }
    found = [pair for name, record in returned.items() for pair in arrays_of(record, name)]
    names = [path for path, _ in found]
    for held in ("built.layers[0].d_hat", "built.top.P_ii.vals",
                 "built.layers[1].factorization.divergence_trace",
                 "read.layers[0].factorization.D", "read.top.r_interior",
                 "select_k.f", "boundary_score"):
        assert held in names
    assert [path for path, a in found if a.flags.writeable] == []


def test_saving_a_loaded_top_file_reproduces_its_bytes(tmp_path, small_hierarchy):
    write_hierarchy(tmp_path / "stack", small_hierarchy)
    top = tmp_path / "stack" / "top.json"
    assert resaved_bytes(top, tmp_path) == top.read_bytes()


def test_read_hierarchy_rejects_bad_manifest(tmp_path, small_hierarchy):
    out = tmp_path / "stack"
    write_hierarchy(out, small_hierarchy)
    path = out / "hierarchy.json"
    good = json.loads(path.read_text())

    broken = dict(good)
    del broken["alpha_schedule"]
    path.write_text(json.dumps(broken))
    with pytest.raises(ValueError, match="lacks key 'alpha_schedule'"):
        read_hierarchy(out)

    broken = dict(good)
    broken["level_dirs"] = ["level_0"]
    path.write_text(json.dumps(broken))
    with pytest.raises(ValueError, match="lengths disagree"):
        read_hierarchy(out)


def test_write_hierarchy_replaces_stale_files(tmp_path, small_hierarchy):
    out = tmp_path / "stack"
    os.makedirs(out)
    (out / "leftover.csv").write_text("junk")
    write_hierarchy(out, small_hierarchy)
    assert not (out / "leftover.csv").exists()
    assert (out / "hierarchy.json").is_file()
