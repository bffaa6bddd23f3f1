import tracemalloc

import numpy as np
import pytest

from conftest import LAM, R_STEP, TWIN_WEIGHT, benchmark_rooms, benchmark_taxi
from reference import compose
from subtask_forge import fileio, lmdp_core
from subtask_forge.domains import RingSpec, RoomsSpec, build_ring, build_rooms
from subtask_forge.errors import SingularSystemError
from subtask_forge.multitask import (
    DEFAULT_Q_FLOOR,
    build_uniform_task_basis,
    check_task_basis,
    solve_task_basis,
)


@pytest.fixture(scope="module")
def small_rooms():
    return build_rooms(RoomsSpec(2, 2, 3), twin_weight=0.05, lam=5.0)


@pytest.fixture(scope="module")
def large_rooms():
    # rooms 8x8x5: a 1600 x 1600 basis, 20 MB
    return build_rooms(RoomsSpec(8, 8, 5), R_STEP, LAM, TWIN_WEIGHT)


def test_uniform_basis_is_identity(small_rooms):
    Q = build_uniform_task_basis(small_rooms)
    np.testing.assert_array_equal(Q, np.eye(36))


def test_basis_columns_match_single_solves(small_rooms):
    L = small_rooms
    Z = solve_task_basis(L, build_uniform_task_basis(L))
    assert Z.shape == (36, 36)
    assert np.all(Z > 0)
    for t in (0, 17, 35):
        q = np.full(L.n_boundary, DEFAULT_Q_FLOOR)
        q[t] = 1.0
        np.testing.assert_allclose(Z[:, t], lmdp_core._FiniteExitSystem(L).solve(q[:, None])[:, 0],
                                   rtol=1e-12)


def test_goal_column_peaks_at_its_goal(small_rooms):
    Z = solve_task_basis(small_rooms, build_uniform_task_basis(small_rooms))
    for t in range(36):
        assert Z[:, t].argmax() == t  # twin exits make state t the best place


def test_task_permutation_permutes_columns(small_rooms):
    L = small_rooms
    Q = build_uniform_task_basis(L)
    perm = np.random.default_rng(3).permutation(36)
    Z = solve_task_basis(L, Q)
    Z_perm = solve_task_basis(L, Q[:, perm])
    np.testing.assert_array_equal(Z_perm, Z[:, perm])


def test_q_floor_is_applied(small_rooms):
    L = small_rooms
    Q = build_uniform_task_basis(L)
    a = solve_task_basis(L, Q, q_floor=1e-12)
    b = solve_task_basis(L, Q, q_floor=1e-6)
    assert not np.allclose(a, b)  # the floor is part of the solved reward
    q = np.full(36, 1e-6)
    q[0] = 1.0
    np.testing.assert_allclose(b[:, 0], lmdp_core._FiniteExitSystem(L).solve(q[:, None])[:, 0],
                               rtol=1e-12)


@pytest.mark.skipif(fileio._blas_threads() is None,
                    reason="no OpenBLAS thread setter in this process")
@pytest.mark.parametrize("make", [benchmark_taxi, lambda: benchmark_rooms(2, 2, 3),
                                  lambda: benchmark_rooms(6, 6, 5)],
                         ids=["taxi", "rooms 2x2x3", "rooms 6x6x5"])
def test_dense_solve_has_the_same_bits_at_any_blas_thread_count(make):
    L = make()
    assert L.n_interior <= lmdp_core.DENSE_MAX_STATES
    get_threads, set_threads = fileio._blas_threads()
    before = get_threads()
    bases = []
    try:
        for threads in (3, 2, 1):
            set_threads(threads)
            bases.append(solve_task_basis(L))
            assert get_threads() == threads
    finally:
        set_threads(before)
    for Z in bases[:2]:
        assert np.array_equal(Z, bases[2])


@pytest.mark.parametrize("block_entries", [lmdp_core.SOLVE_BLOCK_ENTRIES, 4])
@pytest.mark.parametrize("domain", ["rooms", "taxi", "ring"])
def test_uniform_basis_solved_without_q_matches_the_identity(
        small_rooms, monkeypatch, domain, block_entries):
    L = {"rooms": small_rooms, "taxi": benchmark_taxi(),
         "ring": build_ring(RingSpec(16), lam=2.0)}[domain]
    monkeypatch.setattr(lmdp_core, "SOLVE_BLOCK_ENTRIES", block_entries)
    Z = solve_task_basis(L)
    assert Z.flags.c_contiguous
    np.testing.assert_array_equal(Z, solve_task_basis(L, build_uniform_task_basis(L)))
    for q_floor in (1e-6, 1e-300):
        np.testing.assert_array_equal(
            solve_task_basis(L, q_floor=q_floor),
            solve_task_basis(L, build_uniform_task_basis(L), q_floor))


def test_q_floor_range():
    L = build_ring(RingSpec(4))
    for Q in (build_uniform_task_basis(L), None):
        for bad in (0.0, -1e-9, 1e-3, 0.5):
            with pytest.raises(ValueError, match="q_floor"):
                solve_task_basis(L, Q, q_floor=bad)


def test_check_task_basis_errors(small_rooms):
    L = small_rooms
    with pytest.raises(ValueError, match="36 rows"):
        check_task_basis(L, np.ones((5, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        check_task_basis(L, -np.ones((36, 2)))
    Q = np.ones((36, 3))
    Q[:, 1] = 0.0
    with pytest.raises(ValueError, match="column 1 has no positive entry"):
        check_task_basis(L, Q)


def test_compose_recovers_blend(small_rooms):
    L = small_rooms
    Q = build_uniform_task_basis(L)
    Z = solve_task_basis(L, Q)
    rng = np.random.default_rng(11)
    w_true = rng.uniform(0.0, 2.0, 36)
    w, z = compose(Q, Z, Q @ w_true)
    np.testing.assert_allclose(w, w_true, atol=1e-9)
    np.testing.assert_allclose(z, Z @ w_true, rtol=1e-9)


def test_compose_blend_solves_blended_task(small_rooms):
    # the composed desirability equals a fresh solve of the blended reward
    L = small_rooms
    Q = build_uniform_task_basis(L)
    Z = solve_task_basis(L, Q)
    rng = np.random.default_rng(4)
    w_true = rng.uniform(0.1, 1.0, 36)
    _, z = compose(Q, Z, Q @ w_true)
    q_full = np.maximum(Q, DEFAULT_Q_FLOOR) @ w_true
    direct = lmdp_core._FiniteExitSystem(L).solve(q_full[:, None])[:, 0]
    np.testing.assert_allclose(z, direct, rtol=1e-9)


def test_compose_small_oracle():
    # overdetermined 3x2 system solved by hand: q = 2*col0 + 1*col1
    Q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    Z = np.array([[0.5, 0.25], [0.125, 0.75]])
    w, z = compose(Q, Z, np.array([2.0, 1.0, 3.0]))
    np.testing.assert_allclose(w, [2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(z, Z @ [2.0, 1.0], atol=1e-12)


def test_compose_clips_at_zero():
    # best unconstrained fit would be negative; nnls must clamp w to 0
    Q = np.array([[1.0], [1.0]])
    w, z = compose(Q, np.array([[1.0], [1.0]]), np.zeros(2))
    assert w[0] == 0.0
    np.testing.assert_array_equal(z, [0.0, 0.0])


def test_compose_shape_errors():
    Q = np.eye(3)
    Z = np.ones((4, 3))
    with pytest.raises(ValueError, match="one column per task"):
        compose(Q, np.ones((4, 2)), np.ones(3))
    with pytest.raises(ValueError, match="expected 3"):
        compose(Q, Z, np.ones(5))
    with pytest.raises(ValueError, match="nonnegative"):
        compose(Q, Z, np.array([1.0, -2.0, 0.0]))


def test_failed_check_names_first_task():
    # a positive step reward makes the weighted dynamics non-contractive
    L = build_ring(RingSpec(4), r_step=5.0, lam=1.0)
    with pytest.raises(SingularSystemError, match="^task 0: .*non-positive"):
        solve_task_basis(L, build_uniform_task_basis(L))
    with pytest.raises(SingularSystemError, match="^task 0: .*non-positive"):
        solve_task_basis(L)


def test_basis_solve_holds_little_beyond_its_result(large_rooms):
    # solving every task at once held about four arrays of Z's size at the peak
    L = large_rooms
    Q = build_uniform_task_basis(L)
    from scipy.sparse.linalg import splu  # noqa: F401 -- imported before tracing

    tracemalloc.start()
    try:
        Z = solve_task_basis(L, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Z.shape == (1600, 1600) and Z.flags.c_contiguous
    assert peak <= 1.5 * Z.nbytes, f"peak {peak / Z.nbytes:.2f} x Z.nbytes"


def test_uniform_basis_solve_holds_little_beyond_its_result(large_rooms):
    # traced whole: a dense identity as Q is one more array of Z's size
    from scipy.sparse.linalg import splu  # noqa: F401 -- imported before tracing

    tracemalloc.start()
    try:
        Z = solve_task_basis(large_rooms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Z.shape == (1600, 1600) and Z.flags.c_contiguous
    assert peak <= 1.25 * Z.nbytes, f"peak {peak / Z.nbytes:.2f} x Z.nbytes"
