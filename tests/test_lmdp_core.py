import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import (
    equal_dynamics,
    labels_boundary,
    labels_interior,
    singular_on_both_solvers,
)
from reference import solve_iterative
from subtask_forge import lmdp_core
from subtask_forge.domains import RingSpec, build_ring
from subtask_forge.errors import SingularSystemError
from subtask_forge.lmdp_core import (
    Lmdp,
    PassiveDynamics,
    StateSpace,
    Triplets,
    lmdp_from_json_dict,
    lmdp_to_json_dict,
    load_lmdp,
    save_lmdp,
    validate_lmdp,
)
from subtask_forge.multitask import (
    DEFAULT_Q_FLOOR,
    build_uniform_task_basis,
    solve_task_basis,
)

# Two interior, two boundary states; columns sum to 1, entry (to, from).
# Oracle values from a dense solve of (I - diag(g) P_ii^T) z = diag(g) P_bi^T q
# with g = exp(r), frozen to full precision.
P_II = np.array([[0.2, 0.25], [0.3, 0.25]])
P_BI = np.array([[0.4, 0.1], [0.1, 0.4]])
R = np.array([-1.0, -0.5])
Q = np.array([1.0, 0.5])
Z_ORACLE = np.array([0.20868768427179646, 0.25178134374954486])


def two_state() -> Lmdp:
    return Lmdp(
        space=StateSpace(2, 2, ("a", "b", "exit:a", "exit:b")),
        dynamics=PassiveDynamics(P_ii=P_II, P_bi=P_BI),
        r_interior=R,
        lam=1.0,
    )


def test_two_state_oracle():
    z = lmdp_core._FiniteExitSystem(two_state()).solve(Q[:, None])[:, 0]
    np.testing.assert_allclose(z, Z_ORACLE, rtol=1e-12)


def test_iterative_matches_direct():
    L = two_state()
    z_dir = lmdp_core._FiniteExitSystem(L).solve(Q[:, None])[:, 0]
    z_it = solve_iterative(L, Q, tol=1e-14)
    np.testing.assert_allclose(z_it, z_dir, rtol=1e-10)


def test_singular_when_no_exit():
    # both interior columns keep all mass in the interior with r = 0
    trapped = Lmdp(
        space=StateSpace(2, 1),
        dynamics=PassiveDynamics(
            P_ii=np.array([[0.5, 0.5], [0.5, 0.5]]),
            P_bi=np.zeros((1, 2)),
        ),
        r_interior=np.zeros(2),
    )
    with pytest.raises(SingularSystemError, match="spectral radius"):
        lmdp_core._FiniteExitSystem(trapped).solve(np.ones((1, 1)))


def test_both_solvers_report_a_trapped_lmdp_alike():
    # the LMDP of test_singular_when_no_exit: no interior state can exit
    trapped = Lmdp(
        space=StateSpace(2, 1),
        dynamics=PassiveDynamics(
            P_ii=np.array([[0.5, 0.5], [0.5, 0.5]]),
            P_bi=np.zeros((1, 2)),
        ),
        r_interior=np.zeros(2),
    )
    dense, lu = singular_on_both_solvers(
        lambda: lmdp_core._FiniteExitSystem(trapped).solve(np.ones((1, 1))))
    assert dense == lu
    assert re.match(r"desirability system is singular \(estimated spectral radius 1\)", dense)


def test_iterative_budget():
    # the oracle refuses to return an unconverged answer
    with pytest.raises(AssertionError, match="did not reach"):
        solve_iterative(two_state(), Q, tol=1e-14, max_iter=2)


def test_nonuniform_rewards_batch_matches_loop(monkeypatch):
    # regression: the reward factor must scale rows, not columns, also for
    # matrix right-hand sides; with 4 entries a block holds 2 of the 7
    # columns, and the blocks must not show in the result or in the errors
    rng = np.random.default_rng(7)
    L = Lmdp(
        space=StateSpace(2, 2),
        dynamics=PassiveDynamics(P_ii=P_II, P_bi=P_BI),
        r_interior=np.array([-2.0, -0.1]),
    )
    sys_ = lmdp_core._FiniteExitSystem(L)
    for block_entries in (lmdp_core.SOLVE_BLOCK_ENTRIES, 4):
        monkeypatch.setattr(lmdp_core, "SOLVE_BLOCK_ENTRIES", block_entries)
        QB = rng.uniform(0.2, 1.0, size=(2, 7))
        batch = sys_.solve(QB)
        assert batch.flags.c_contiguous
        for t in range(QB.shape[1]):
            np.testing.assert_allclose(batch[:, t], sys_.solve(QB[:, t:t + 1])[:, 0], rtol=1e-12)
        QB[:, 5] = 0.0  # a zero reward gives a zero desirability
        with pytest.raises(SingularSystemError, match="^task 5: .*non-positive"):
            sys_.solve(QB)
        np.testing.assert_allclose(sys_.solve(QB, q_floor=1e-3)[:, 5],
                                   sys_.solve(np.full((2, 1), 1e-3))[:, 0], rtol=1e-12)


@pytest.mark.parametrize("dense_max", [lmdp_core.DENSE_MAX_STATES, 0])
def test_residual_check_names_the_perturbed_task(dense_max):
    # tasks 3-7 of the ring's uniform basis as one block; moving one solved
    # column by 1e-8 relative leaves it positive but off the fixed point
    L = build_ring(RingSpec(12))
    with mock.patch.object(lmdp_core, "DENSE_MAX_STATES", dense_max):
        sys_ = lmdp_core._FiniteExitSystem(L)
    Q = np.full((L.n_boundary, 5), DEFAULT_Q_FLOOR)
    Q[3:8] += np.eye(5) * (1.0 - DEFAULT_Q_FLOOR)
    b = L.dynamics.bi.t_dot(Q) * sys_.g[:, None]
    z = sys_.lu_solve(b)
    sys_.check(z, b, 3)
    z[:, 2] *= 1.0 + 1e-8
    with pytest.raises(SingularSystemError,
                       match=r"^task 5: fixed-point residual \S+ exceeds tolerance"):
        sys_.check(z, b, 3)


def test_validate_clean():
    rep = validate_lmdp(two_state())
    assert rep.ok and rep.violations == ()


def test_validate_collects_violations():
    bad = Lmdp(
        space=StateSpace(2, 2, ("a", "a", "x", "y")),
        dynamics=PassiveDynamics(
            P_ii=np.array([[0.2, 0.25], [0.3, 0.25]]),
            P_bi=np.array([[0.4, 0.1], [0.1, 0.1]]),  # column 1 sums to 0.7
        ),
        r_interior=np.array([np.nan, 0.0]),
        lam=1.0,
    )
    rep = validate_lmdp(bad)
    assert not rep.ok
    joined = "\n".join(rep.violations)
    assert "labels are not unique" in joined
    assert "column 1 sums to 0.7" in joined
    assert "non-finite" in joined


def test_nan_dynamics_rejected_in_process_and_in_a_file(tmp_path):
    d = lmdp_to_json_dict(two_state())
    d["P_ii"]["triplets"][0][2] = float("nan")
    assert "P_ii has a NaN entry" in validate_lmdp(lmdp_from_json_dict(d)).violations
    path = tmp_path / "lmdp.json"
    path.write_text(json.dumps(d))  # writes the non-standard token NaN
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: got NaN, but JSON "
                                         "numbers must be finite"):
        load_lmdp(path)


def test_validate_caps_reported_columns():
    n = 12
    rep = validate_lmdp(
        Lmdp(
            space=StateSpace(n, 1),
            dynamics=PassiveDynamics(
                P_ii=np.zeros((n, n)), P_bi=np.full((1, n), 0.5)
            ),
            r_interior=np.zeros(n),
        ),
    )
    assert sum("sums to" in v for v in rep.violations) == 8
    assert any("4 more" in v for v in rep.violations)


def test_json_roundtrip(tmp_path):
    L = two_state()
    path = tmp_path / "lmdp.json"
    save_lmdp(path, L)
    back = load_lmdp(path)
    assert back.space == L.space
    assert back.lam == L.lam
    assert equal_dynamics(back.dynamics, L.dynamics)
    np.testing.assert_array_equal(back.r_interior, L.r_interior)
    assert labels_interior(back) == ("a", "b")
    assert labels_boundary(back) == ("exit:a", "exit:b")


def test_json_triplets_sorted_and_complete():
    d = lmdp_to_json_dict(two_state())
    trips = d["P_ii"]["triplets"]
    assert trips == sorted(trips, key=lambda t: (t[1], t[0]))
    assert len(trips) == 4
    assert d["lambda"] == 1.0


def test_json_missing_field():
    d = lmdp_to_json_dict(two_state())
    d.pop("P_bi")
    with pytest.raises(ValueError, match="P_bi"):
        lmdp_from_json_dict(d)


def test_json_triplet_out_of_range():
    d = lmdp_to_json_dict(two_state())
    d["P_ii"]["triplets"][0][0] = 5
    with pytest.raises(ValueError, match="out of range"):
        lmdp_from_json_dict(d)


def test_dynamics_are_read_only():
    L = two_state()
    with pytest.raises(ValueError):
        L.dynamics.ii.vals[0] = 0.9
    with pytest.raises(ValueError):
        L.r_interior[0] = 1.0


@st.composite
def random_lmdps(draw):
    """Small random LMDPs with guaranteed exit mass and negative rewards."""
    n_i = draw(st.integers(min_value=1, max_value=6))
    n_b = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=(n_i + n_b, n_i))
    raw[n_i:] += 0.05  # every column keeps some exit probability
    cols = raw / raw.sum(axis=0)
    r = -rng.uniform(0.0, 2.0, size=n_i)
    lam = draw(st.sampled_from([0.5, 1.0, 3.0]))
    L = Lmdp(
        space=StateSpace(n_i, n_b),
        dynamics=PassiveDynamics(P_ii=cols[:n_i], P_bi=cols[n_i:]),
        r_interior=r,
        lam=lam,
    )
    q = rng.uniform(0.1, 2.0, size=n_b)
    return L, q


@given(random_lmdps())
@settings(max_examples=60)
def test_solutions_are_positive_fixed_points(case):
    L, q = case
    assert validate_lmdp(L).ok
    z = lmdp_core._FiniteExitSystem(L).solve(q[:, None])[:, 0]
    assert np.all(z > 0) and np.all(np.isfinite(z))
    g = np.exp(L.r_interior / L.lam)
    res = z - g * (L.dynamics.ii.toarray().T @ z + L.dynamics.bi.toarray().T @ q)
    assert np.max(np.abs(res)) <= 1e-10 * max(1.0, np.max(np.abs(z)))
    np.testing.assert_allclose(z, solve_iterative(L, q, tol=1e-14), rtol=1e-9)


@given(random_lmdps(), st.data())
@settings(max_examples=40)
def test_permuting_interior_states_permutes_the_basis(case, data):
    # state i of the permuted LMDP is state perm[i] of the original
    L, _ = case
    perm = np.array(data.draw(st.permutations(range(L.n_interior))))
    permuted = Lmdp(
        space=L.space,
        dynamics=PassiveDynamics(P_ii=L.dynamics.ii.toarray()[np.ix_(perm, perm)],
                                 P_bi=L.dynamics.bi.toarray()[:, perm]),
        r_interior=L.r_interior[perm],
        lam=L.lam,
    )
    Q = build_uniform_task_basis(L)
    Z = solve_task_basis(L, Q)[perm]
    # criterion 1's tolerance
    assert np.max(np.abs(solve_task_basis(permuted, Q) - Z) / Z) <= 1e-9


@given(random_lmdps(), st.integers(min_value=1, max_value=12))
@settings(max_examples=40)
def test_basis_columns_match_the_iterative_solve(case, block_entries):
    # criterion 1 for every column of the basis, solved in blocks of one
    # column up to all of them
    L, _ = case
    Q = build_uniform_task_basis(L)
    with mock.patch.object(lmdp_core, "SOLVE_BLOCK_ENTRIES", block_entries):
        Z = solve_task_basis(L, Q)
    for t in range(Q.shape[1]):
        z = solve_iterative(L, np.maximum(Q[:, t], DEFAULT_Q_FLOOR), tol=1e-14)
        assert np.max(np.abs(Z[:, t] - z) / z) <= 1e-9


@given(random_lmdps(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_solving_a_blend_of_tasks_blends_the_basis(case, seed):
    # criterion 2: the solve of the blend Q w is Z w for nonnegative w
    L, _ = case
    Q = build_uniform_task_basis(L)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 2.0, L.n_boundary) * (rng.random(L.n_boundary) < 0.7)
    w[rng.integers(L.n_boundary)] += 1.0  # at least one task is in the blend
    z = lmdp_core._FiniteExitSystem(L).solve((np.maximum(Q, DEFAULT_Q_FLOOR) @ w)[:, None])[:, 0]
    assert np.max(np.abs(solve_task_basis(L, Q) @ w - z) / z) <= 1e-9


@given(random_lmdps(), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=40)
def test_uniform_reward_shift_scales_desirability(case, dr):
    # adding a constant c to every interior reward multiplies z(s) by
    # exp(c / lam) only when the chain exits immediately; in general it
    # rescales the fixed point monotonically, so z must grow entrywise
    L, q = case
    z = lmdp_core._FiniteExitSystem(L).solve(q[:, None])[:, 0]
    shifted = Lmdp(
        space=L.space,
        dynamics=L.dynamics,
        r_interior=L.r_interior + dr,
        lam=L.lam,
    )
    try:
        z_up = lmdp_core._FiniteExitSystem(shifted).solve(q[:, None])[:, 0]
    except SingularSystemError:
        return  # the raised rewards may break contractivity; nothing to check
    assert np.all(z_up >= z - 1e-12)


@given(random_lmdps())
@settings(max_examples=40)
def test_dense_and_sparse_solves_agree(case):
    # the dense inverse and splu, forced by a size constant of 0, solve the
    # same system; these are well conditioned, so they agree to a few ulps
    L, _ = case
    Z = solve_task_basis(L)
    with mock.patch.object(lmdp_core, "DENSE_MAX_STATES", 0):
        Z_lu = solve_task_basis(L)
    assert np.max(np.abs(Z - Z_lu) / Z_lu) <= 1e-12


def test_dynamics_take_triplets_or_dense_arrays_only():
    dense = two_state().dynamics
    given_triplets = PassiveDynamics(P_ii=dense.ii, P_bi=dense.bi)
    assert given_triplets.ii is dense.ii and given_triplets.bi is dense.bi
    for bad, got in ((sparse.csr_array(P_II), "csr_array"), (P_II[0], "a 1-D array"),
                     ([[0.5, "x"]], "list"), (None, "a 0-D array")):
        with pytest.raises(ValueError, match=re.escape(
                f"P_ii: expected Triplets or a numeric 2-D array, got {got}")):
            PassiveDynamics(P_ii=bad, P_bi=P_BI)
    with pytest.raises(ValueError, match="P_bi: expected Triplets"):
        PassiveDynamics(P_ii=P_II, P_bi=sparse.coo_array(P_BI))


@st.composite
def coordinates(draw, max_copies: int):
    """(shape, rows, cols, vals) of a small matrix in a random order, each
    (row, col) pair given 1 to ``max_copies`` times; some values are 0."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    copies = rng.integers(0, max_copies + 1, shape) * (rng.random(shape) < 0.6)
    cols, rows = np.nonzero(copies.T)
    rows, cols = np.repeat(rows, copies[rows, cols]), np.repeat(cols, copies[rows, cols])
    order = rng.permutation(rows.size)
    vals = rng.uniform(0.0, 1.0, rows.size) * (rng.random(rows.size) < 0.9)
    return shape, rows[order], cols[order], vals


@given(coordinates(max_copies=1), st.integers(0, 2**31))
@settings(max_examples=150)
def test_t_dot_is_scipys_transposed_product(case, seed):
    # t_dot sums each column's entries top to bottom, as scipy's CSR product
    # with the transpose does, so the two agree bit for bit
    shape, rows, cols, vals = case
    P = Triplets.canonical(shape, rows, cols, vals)
    reference = sparse.csc_array((vals, (rows, cols)), shape=shape)
    rng = np.random.default_rng(seed)
    for X in (rng.normal(size=shape[0]), rng.normal(size=(shape[0], 3))):
        assert np.array_equal(P.t_dot(X), reference.T @ X)


@given(coordinates(max_copies=4))
@settings(max_examples=150)
def test_canonical_sorts_and_sums_duplicates_in_input_order(case):
    shape, rows, cols, vals = case
    P = Triplets.canonical(shape, rows, cols, vals)
    assert np.all(np.diff(P.cols * shape[0] + P.rows) > 0)  # CSC order, no pair twice
    in_order, copies = np.zeros(shape), np.zeros(shape)
    for r, c, v in zip(rows, cols, vals):
        in_order[r, c] += v
        copies[r, c] += 1
    assert np.array_equal(P.toarray(), in_order)
    assert P.vals.size == np.count_nonzero(copies)  # explicit zeros are kept
    # scipy adds a pair's m copies in another order; two orders of summing m
    # nonnegative numbers differ by at most 2 (m - 1) u times their sum, u = eps / 2
    reference = sparse.csc_array((vals, (rows, cols)), shape=shape)
    reference.sum_duplicates()
    bound = np.maximum(copies - 1, 0) * np.finfo(float).eps * in_order
    assert np.all(np.abs(P.toarray() - reference.toarray()) <= bound)


@given(coordinates(max_copies=1), st.integers(0, 2**31))
@settings(max_examples=60)
def test_scale_columns_keeps_explicit_zeros(case, seed):
    shape, rows, cols, vals = case
    P = Triplets.canonical(shape, rows, cols, vals)
    scale = np.random.default_rng(seed).uniform(0.0, 2.0, shape[1])
    scale[::2] = 0.0
    S = P.scale_columns(scale)
    assert S.shape == P.shape
    assert np.array_equal(S.rows, P.rows) and np.array_equal(S.cols, P.cols)
    assert np.array_equal(S.vals, P.vals * scale[P.cols])
    assert not S.vals.flags.writeable
