import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHILD_FAILURES, benchmark_rooms, inject, write_factorization
from reference import beta_divergence
from subtask_forge import factorize, fileio
from subtask_forge.errors import FactorRankError, NonFiniteResultError
from subtask_forge.factorize import (
    Factorization,
    KSelection,
    NmfOptions,
    find_elbow,
    nmf,
    read_factorization,
    select_k,
    write_k_curve,
)
from subtask_forge.multitask import solve_task_basis


def random_positive(shape, seed=0, lo=0.2, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


# ---------------------------------------------------------------------------
# beta divergence
# ---------------------------------------------------------------------------


def test_divergence_hand_values():
    # beta=2: half squared error
    assert beta_divergence([[1.0, 2.0], [3.0, 4.0]],
                           [[2.0, 2.0], [2.0, 2.0]], 2.0) == 3.0
    # beta=1 on (1,2) vs (2,1): ln(1/2)+1 + 2 ln 2 - 1 = ln 2
    assert beta_divergence([1.0, 2.0], [2.0, 1.0], 1.0) == pytest.approx(
        np.log(2.0), rel=1e-14
    )
    # beta=0 on 2 vs 1: 2 - ln 2 - 1
    assert beta_divergence([2.0], [1.0], 0.0) == pytest.approx(
        1.0 - np.log(2.0), rel=1e-14
    )
    # beta=3 on 2 vs 1: (8 + 2*1 - 3*2)/6
    assert beta_divergence([2.0], [1.0], 3.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # beta=1/2 on 4 vs 1: (2 - 1/2 - 2)/(-1/4)
    assert beta_divergence([4.0], [1.0], 0.5) == pytest.approx(2.0, rel=1e-14)


def test_divergence_zero_iff_equal():
    A = random_positive((5, 4), seed=1)
    for beta in (0.0, 1.0, 2.0):
        # the named kernels are cancellation-free and hit zero exactly
        assert beta_divergence(A, A, beta) == 0.0
    for beta in (0.5, 1.5):
        # the generic three-term formula only cancels to rounding level
        assert abs(beta_divergence(A, A, beta)) < 1e-12
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert beta_divergence(A, A * 1.01, beta) > 0.0


def test_divergence_kl_handles_zeros():
    # a=0 contributes just b
    assert beta_divergence([0.0, 1.0], [3.0, 1.0], 1.0) == pytest.approx(3.0)


def test_divergence_domain_rules():
    with pytest.raises(ValueError, match="nonnegative"):
        beta_divergence([-1.0], [1.0], 2.0)
    with pytest.raises(ValueError, match="strictly positive first"):
        beta_divergence([0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="strictly positive second"):
        beta_divergence([1.0], [0.0], 1.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        beta_divergence(np.ones(3), np.ones(4), 1.0)
    # beta > 1 tolerates zeros in the second argument
    assert np.isfinite(beta_divergence([1.0], [0.0], 2.0))


def test_divergence_continuity_in_beta():
    A = random_positive((6, 5), seed=2)
    B = random_positive((6, 5), seed=3)
    for beta, eps in ((1.0, 1e-7), (2.0, 1e-7)):
        ref = beta_divergence(A, B, beta)
        for near in (beta - eps, beta + eps):
            assert beta_divergence(A, B, near) == pytest.approx(ref, rel=1e-5)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=30)
def test_divergence_scale_law(c):
    # d_beta(cA || cB) = c^beta d_beta(A || B)
    A = random_positive((4, 4), seed=4)
    B = random_positive((4, 4), seed=5)
    for beta in (0.0, 1.0, 2.0):
        lhs = beta_divergence(c * A, c * B, beta)
        rhs = c**beta * beta_divergence(A, B, beta)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_divergence_tiny_ratio_accuracy():
    # the KL term for b near a must follow (b-a)^2 / (2a), not cancel to 0
    a, b = 1.0, 1.0 + 1e-9
    got = beta_divergence([a], [b], 1.0)
    assert got == pytest.approx((b - a) ** 2 / (2 * a), rel=1e-5)
    assert got > 0.0


def test_divergence_keeps_tiny_ratios_finite():
    # B/A - 1 (IS: A/B - 1) rounds to -1 once the ratio falls below about
    # 2**-53, and log1p(-1) = -inf; such entries are taken as (r - 1) - log r
    kl = 2.0 * np.log(1e17) - 2.0 + 2e-17  # about 76.2879
    assert beta_divergence([[2.0, 1.0]], [[2e-17, 1.0]], 1.0) == pytest.approx(kl, rel=1e-14)
    itakura_saito = 1e-17 - np.log(1e-17) - 1.0  # about 38.144
    assert beta_divergence([[2e-17, 1.0]], [[2.0, 1.0]], 0.0) == pytest.approx(
        itakura_saito, rel=1e-14
    )


# ---------------------------------------------------------------------------
# multiplicative updates
# ---------------------------------------------------------------------------


def test_nmf_monotone_traces():
    Z = random_positive((20, 15), seed=6)
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        for seed in range(3):
            F = nmf(Z, 4, beta, NmfOptions(seed=seed, restarts=1, max_iter=200))
            t = F.divergence_trace
            drops = t[:-1] - t[1:]
            assert np.all(drops >= -1e-12 * np.maximum(t[:-1], 1e-300)), (beta, seed)


def test_nmf_rank1_exact():
    rng = np.random.default_rng(7)
    Z = np.outer(rng.uniform(0.5, 2.0, 30), rng.uniform(0.5, 2.0, 20))
    for beta in (0.0, 1.0, 2.0):
        F = nmf(Z, 1, beta, NmfOptions(seed=0, restarts=2))
        assert F.normalized_divergence <= 1e-12


def test_nmf_shapes_and_normalization():
    Z = random_positive((12, 9), seed=8)
    F = nmf(Z, 3, 1.0, NmfOptions(seed=0, restarts=2, max_iter=100))
    assert F.D.shape == (12, 3) and F.W.shape == (3, 9)
    assert np.all(F.D >= 0) and np.all(F.W >= 0)
    np.testing.assert_allclose(F.D.sum(axis=0), 1.0, atol=1e-12)
    # the reported divergence matches the returned factors
    assert beta_divergence(Z, F.D @ F.W, 1.0) == pytest.approx(F.divergence, rel=1e-9)
    assert F.k == 3 and F.beta == 1.0 and 0 <= F.best_restart < 2
    assert F.divergence_trace[-1] == F.divergence


def test_nmf_deterministic():
    Z = random_positive((10, 8), seed=9)
    opts = NmfOptions(seed=5, restarts=3, max_iter=50)
    a = nmf(Z, 3, 1.0, opts)
    b = nmf(Z, 3, 1.0, opts)
    assert a.D.tobytes() == b.D.tobytes()
    assert a.W.tobytes() == b.W.tobytes()
    c = nmf(Z, 3, 1.0, NmfOptions(seed=6, restarts=3, max_iter=50))
    assert a.D.tobytes() != c.D.tobytes()


def test_nmf_best_restart_is_minimum():
    from subtask_forge.factorize import _run_restart

    Z = random_positive((15, 10), seed=11)
    opts = NmfOptions(seed=2, restarts=5, max_iter=40)
    F = nmf(Z, 4, 1.0, opts)
    finals = [_run_restart(Z, 4, 1.0, opts, r)[2][-1] for r in range(5)]
    assert F.divergence == min(finals)
    assert F.best_restart == int(np.argmin(finals))


def recorded_sweeps(max_iter):
    """The sweeps at which a restart of ``max_iter`` sweeps that does not
    stop by the rule records its value."""
    return sorted({*range(0, max_iter + 1, factorize._VALUE_EVERY), max_iter})


def _restart_with_temporaries(Z, k, beta, opts, restart):
    """Reference restart: every term a fresh array. The value is recorded at
    ``recorded_sweeps(opts.max_iter)``; it is taken in Gram form at beta 2
    until it falls below its floor, and from then on as ``beta_divergence``,
    as at every other beta. Returns D, W, the trace and whether the value
    switched to ``beta_divergence`` in a restart that began above its floor."""
    tiny = np.finfo(float).tiny
    rng = np.random.default_rng([opts.seed, k, restart])
    D = rng.uniform(0.1, 1.1, size=(Z.shape[0], k))
    W = rng.uniform(0.1, 1.1, size=(k, Z.shape[1]))
    scale = np.sqrt(Z.mean() / (float(D.sum(axis=0) @ W.sum(axis=1)) / Z.size))
    D *= scale
    W *= scale
    gamma = {0.0: 0.5, 1.0: 1.0, 1.5: 1.0, 2.0: 1.0}[beta]  # the MM exponent
    gram = beta == 2
    switched = False

    def objective():
        nonlocal gram, switched
        if gram:
            # Gram form: 0.5 ||Z||^2 - <D.T Z, W> + 0.5 <D.T D, W W.T>
            half_zz = 0.5 * float(np.einsum("ij,ij->", Z, Z))
            d = (half_zz - float(np.einsum("ij,ij->", D.T @ Z, W))
                 + 0.5 * float(np.einsum("ij,ij->", D.T @ D, W @ W.T)))
            if d >= factorize._GRAM_FLOOR * half_zz:
                return d
            switched, gram = True, False
        return beta_divergence(Z, D @ W, beta)

    def power(B, p):
        return 1.0 / (B * B) if p == -2.0 else B ** p

    recorded = recorded_sweeps(opts.max_iter)
    trace = [objective()]
    for sweep in range(1, opts.max_iter + 1):
        B = D @ W
        if beta == 2:
            D *= (Z @ W.T) / np.maximum(D @ (W @ W.T), tiny)
            W *= (D.T @ Z) / np.maximum((D.T @ D) @ W, tiny)
        elif beta == 1:
            D *= ((Z / B) @ W.T) / np.maximum(W.sum(axis=1)[None, :], tiny)
            W *= (D.T @ (Z / (D @ W))) / np.maximum(D.sum(axis=0)[:, None], tiny)
        else:
            D *= (((power(B, beta - 2.0) * Z) @ W.T)
                  / np.maximum(B ** (beta - 1.0) @ W.T, tiny)) ** gamma
            B = D @ W
            W *= ((D.T @ (power(B, beta - 2.0) * Z))
                  / np.maximum(D.T @ B ** (beta - 1.0), tiny)) ** gamma
        if sweep in recorded:
            trace.append(objective())
    return D, W, np.array(trace), switched


def floor_crossing_basis():
    """A rank-4 product plus noise, on which a k=4 fit falls below the Gram
    floor within its first few sweeps."""
    rng = np.random.default_rng(13)
    return (rng.uniform(0.0, 1.0, (40, 4)) @ rng.uniform(0.0, 1.0, (4, 30))
            + rng.uniform(0.0, 0.5, (40, 30)))


def _matches_temporaries(Z, beta, order) -> bool:
    """Assert that one restart on Z, in the given memory order, has the
    reference's bits; return whether the reference left the Gram form."""
    from subtask_forge.factorize import _run_restart

    Z = np.asarray(Z, order=order)
    opts = NmfOptions(seed=5, restarts=1, max_iter=30, tol=0.0)
    D, W, trace, sweeps, _ = _run_restart(Z, 4, beta, opts, 0)
    D_ref, W_ref, trace_ref, switched = _restart_with_temporaries(Z, 4, beta, opts, 0)
    assert sweeps == 30
    assert D.tobytes() == D_ref.tobytes()
    assert W.tobytes() == W_ref.tobytes()
    assert trace.tobytes() == trace_ref.tobytes()
    return switched


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("order", ["C", "F"])
def test_restart_work_arrays_match_temporaries(beta, order):
    # a solved basis is Fortran-ordered; CSV-read ones are C-ordered. This
    # fit stays above the Gram floor for its 30 sweeps
    assert not _matches_temporaries(random_positive((40, 30), seed=13), beta, order)


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("order", ["C", "F"])
def test_restart_below_the_floors_matches_temporaries(beta, order):
    # this fit falls low fast: at beta 2 it leaves the Gram form, so the
    # exact phase and the switch into it are compared bit for bit too, and
    # at beta 1 the exact terms are compared on small values
    assert _matches_temporaries(floor_crossing_basis(), beta, order) == (beta == 2)


def test_kl_guard_switches_once_and_keeps_the_exact_fit_floor():
    rng = np.random.default_rng(1)
    Z = rng.uniform(0.0, 1.0, (20, 4)) @ rng.uniform(0.0, 1.0, (4, 16))
    F = nmf(Z, 4, 1.0, NmfOptions(seed=0, restarts=1, max_iter=20000, tol=1e-12))
    assert F.divergence_trace[-1] < 1e-25


def assert_trace_prefix(F, full):
    """F's recorded values equal ``full``'s at every sweep both recorded."""
    mine = dict(zip(recorded_sweeps(F.iterations), F.divergence_trace))
    theirs = dict(zip(recorded_sweeps(full.iterations), full.divergence_trace))
    assert len(mine) == F.divergence_trace.size
    shared = mine.keys() & theirs.keys()
    assert 0 in shared
    assert all(mine[s] == theirs[s] for s in shared)


@pytest.mark.parametrize("basis,k", [("rooms_Z", 16), ("taxi_Z", 5)])
def test_kl_trace_matches_beta_divergence(request, basis, k):
    Z = request.getfixturevalue(basis)
    full = nmf(Z, k, 1.0, NmfOptions(seed=0, restarts=1, max_iter=40, tol=0.0))
    for sweeps in (0, 1, 10, 40):
        F = nmf(Z, k, 1.0, NmfOptions(seed=0, restarts=1, max_iter=sweeps, tol=0.0))
        assert F.iterations == sweeps
        assert_trace_prefix(F, full)
        ref = beta_divergence(Z, F.D @ F.W, 1.0)
        assert abs(F.divergence - ref) <= 1e-13 * ref


def test_gram_guard_switches_once_and_keeps_the_exact_fit_floor(monkeypatch):
    import subtask_forge.factorize as fz

    forms = []  # per Gram-form evaluation: False once it fell below the floor
    objective = fz._gram_objective

    def recording(*args):
        d = objective(*args)
        forms.append(d is not None)
        return d

    monkeypatch.setattr(fz, "_gram_objective", recording)
    rng = np.random.default_rng(1)
    Z = rng.uniform(0.0, 1.0, (20, 4)) @ rng.uniform(0.0, 1.0, (4, 16))
    F = nmf(Z, 4, 2.0, NmfOptions(seed=0, restarts=1, max_iter=20000, tol=1e-12))
    switch = forms.index(False)
    assert switch > 0 and switch == len(forms) - 1  # never evaluated again
    assert F.divergence_trace.size > switch + 1  # the values from the switch on are exact
    assert F.divergence_trace[-1] < 1e-25


@pytest.mark.parametrize("basis,k", [("rooms_Z", 16), ("taxi_Z", 5)])
def test_frobenius_trace_matches_beta_divergence(request, basis, k):
    from subtask_forge.factorize import _GRAM_FLOOR

    Z = request.getfixturevalue(basis)
    full = nmf(Z, k, 2.0, NmfOptions(seed=0, restarts=1, max_iter=40, tol=0.0))
    for sweeps in (0, 1, 10, 40):
        F = nmf(Z, k, 2.0, NmfOptions(seed=0, restarts=1, max_iter=sweeps, tol=0.0))
        assert F.iterations == sweeps
        assert_trace_prefix(F, full)
        # above the floor, so every value of this trace is in Gram form
        assert F.divergence >= _GRAM_FLOOR * 0.5 * np.square(Z).sum()
        ref = beta_divergence(Z, F.D @ F.W, 2.0)
        assert abs(F.divergence - ref) <= 1e-13 * ref


def test_values_are_recorded_every_m_sweeps_and_after_the_last():
    m = factorize._VALUE_EVERY
    Z = random_positive((20, 15), seed=6)
    assert 2 * m < 25 < 3 * m

    def fit(max_iter):
        return nmf(Z, 4, 1.0, NmfOptions(seed=0, restarts=1, max_iter=max_iter, tol=0.0))

    F = fit(25)
    assert F.iterations == 25 and not F.converged
    # one value each at sweeps 0, m, 2m and 25
    assert F.divergence_trace.tolist() == [fit(s).divergence for s in (0, m, 2 * m, 25)]
    start = fit(0)
    assert start.iterations == 0 and start.divergence_trace.tolist() == [F.divergence_trace[0]]

    # an exact rank-1 fit reaches its rounding floor, where the value stops
    # falling, and stops by the rule at a recorded sweep
    rng = np.random.default_rng(7)
    Z = np.outer(rng.uniform(0.5, 2.0, 30), rng.uniform(0.5, 2.0, 20))
    G = nmf(Z, 1, 1.0, NmfOptions(seed=0, restarts=1, max_iter=20000, tol=0.0))
    assert G.converged and 0 < G.iterations < 20000 and G.iterations % m == 0
    assert G.divergence_trace.size == G.iterations // m + 1
    assert G.divergence_trace[-2] - G.divergence_trace[-1] <= 0


def test_tol_bounds_the_mean_improvement_per_sweep_between_values():
    from subtask_forge.factorize import _run_restart

    m = factorize._VALUE_EVERY
    Z = random_positive((12, 9), seed=8)
    full = _run_restart(Z, 3, 1.0, NmfOptions(seed=0, max_iter=25 * m, tol=0.0), 0)[2]
    assert full.size == 26
    per_sweep = (full[:-1] - full[1:]) / (m * full[:-1])
    tol = float(np.sqrt(per_sweep[3] * per_sweep[4]))  # between two steps' rates

    def stops(i):  # the rule at the i-th recorded value, as --tol states it
        return full[i - 1] - full[i] <= tol * m * full[i - 1]

    stop = next(i for i in range(1, full.size) if stops(i))
    assert stop >= 2  # some value before it did not stop the restart
    trace, sweeps, converged = _run_restart(
        Z, 3, 1.0, NmfOptions(seed=0, max_iter=25 * m, tol=tol), 0)[2:]
    assert converged and sweeps == stop * m
    assert trace.tobytes() == full[:stop + 1].tobytes()

    # the last value may lie fewer than m sweeps after the one before it;
    # the rule then scales tol by the sweeps between them, not by m
    last = 4 * m + m // 2
    short = _run_restart(Z, 3, 1.0, NmfOptions(seed=0, max_iter=last, tol=0.0), 0)[2]
    rate = (short[-2] - short[-1]) / (short[-2] * (m // 2))
    for factor, expected in ((1 + 1e-9, True), (1 - 1e-9, False)):
        opts = NmfOptions(seed=0, max_iter=last, tol=rate * factor)
        trace, sweeps, converged = _run_restart(Z, 3, 1.0, opts, 0)[2:]
        assert (sweeps, converged) == (last, expected)
        assert trace.tobytes() == short.tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8), m=st.integers(2, 8),
       sigma=st.floats(0.1, 3.0), data=st.data())
@settings(max_examples=60)
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_trace_descends_and_ends_at_the_fit(beta, seed, n, m, sigma, data):
    """On log-normal Z, a beta-0, beta-1 or beta-2 trace never rises beyond
    1e-12 relative and its last value is the divergence of the returned factors.
    k stays below min(n, m): an exact fit ends at the rounding floor of the
    update itself, where the value wanders by more than 1e-12 of itself."""
    k = data.draw(st.integers(1, min(n, m) - 1))
    Z = np.exp(np.random.default_rng(seed).normal(0.0, sigma, (n, m)))
    F = nmf(Z, k, beta, NmfOptions(seed=seed % 1000, restarts=1, max_iter=60, tol=0.0))
    t = F.divergence_trace
    assert np.all(t[:-1] - t[1:] >= -1e-12 * t[:-1])
    assert F.divergence == pytest.approx(beta_divergence(Z, F.D @ F.W, beta), rel=1e-12)


def test_nmf_normalized_divergence_scale_invariant():
    Z = random_positive((14, 10), seed=12)
    opts = NmfOptions(seed=1, restarts=2, max_iter=120)
    a = nmf(Z, 3, 1.0, opts)
    b = nmf(Z * 37.0, 3, 1.0, opts)
    assert b.normalized_divergence == pytest.approx(a.normalized_divergence, rel=1e-9)


def test_nmf_rejects_bad_input():
    with pytest.raises(FactorRankError, match=r"k must lie in \[1, 4\]"):
        nmf(random_positive((4, 6)), 5, 1.0)
    with pytest.raises(FactorRankError):
        nmf(random_positive((4, 6)), 0, 1.0)
    with pytest.raises(ValueError, match="strictly positive"):
        nmf(np.zeros((3, 3)) , 1, 1.0)
    with pytest.raises(ValueError, match="2-D"):
        nmf(np.ones(5), 1, 1.0)
    for beta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta must be a finite number"):
            nmf(random_positive((4, 6)), 2, beta)
    with pytest.raises(ValueError, match="max_iter"):
        NmfOptions(max_iter=-1)
    with pytest.raises(ValueError, match="restarts"):
        NmfOptions(restarts=0)
    for tol in (-1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be a finite number"):
            NmfOptions(tol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-300])
def test_nmf_rejects_a_non_finite_or_non_positive_entry(bad):
    Z = random_positive((4, 6))
    Z[2, 3] = bad
    with pytest.raises(ValueError, match="^Z entries must be finite and strictly positive$"):
        nmf(Z, 2, 1.0)
    with pytest.raises(ValueError, match="^Z entries must be finite and strictly positive$"):
        select_k(Z, 1.0, 3)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8), m=st.integers(2, 8),
       e=st.sampled_from([*range(-3, 4), factorize._UNSCALED_EXP2 + 1]), data=st.data())
@settings(max_examples=100)
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_scaling_Z_by_a_power_of_4_scales_the_fit_exactly(beta, seed, n, m, e, data):
    """Z * 4**e factorizes as Z: D bit-identical, W times 4**e, the divergence
    times 4**(e * beta). Small e runs the fit on the scaled Z itself, so each
    step, the initial scale included, must commute with the scale; the last e
    is prescaled away. beta 1.5 is left out: its sweeps do not commute."""
    k = data.draw(st.integers(1, min(n, m)))
    Z = np.exp(np.random.default_rng(seed).normal(0.0, 1.0, (n, m)))
    opts = NmfOptions(seed=seed % 1000, restarts=2, max_iter=30, tol=0.0)
    F0 = nmf(Z, k, beta, opts)
    F = nmf(np.ldexp(Z, 2 * e), k, beta, opts)
    assert np.array_equal(F.D, F0.D)
    assert np.array_equal(F.W, np.ldexp(F0.W, 2 * e))
    assert np.array_equal(F.divergence_trace, np.ldexp(F0.divergence_trace, int(2 * e * beta)))
    assert F.normalized_divergence == F0.normalized_divergence


def test_frobenius_fit_forms_no_basis_sized_array():
    # rooms 8x8x5, the large-io basis: 1600 x 1600, 20 MB; the initial
    # scale's D @ W and the baseline's Z - mean were each an array of Z's size
    Z = solve_task_basis(benchmark_rooms(8, 8, 5))
    tracemalloc.start()
    try:
        F = nmf(Z, 64, 2.0, NmfOptions(seed=0, restarts=1, max_iter=5, tol=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.iterations == 5
    assert peak <= 0.35 * Z.nbytes, f"peak {peak / Z.nbytes:.2f} x Z.nbytes"


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("p", [-300, 200, 1000])
def test_nmf_prescales_extreme_basis_exactly(beta, p):
    """Z * 2**p, with p even, factorizes as Z: D bit-identical, W times 2**p,
    the divergence times 2**(p * beta), the normalized divergence equal."""
    Z = solve_task_basis(benchmark_rooms(2, 2, 3))
    opts = NmfOptions(seed=1, restarts=2, max_iter=40, tol=0.0)
    F0 = nmf(Z, 4, beta, opts)
    if np.log2(F0.divergence) + p * beta >= 1024:  # the divergence leaves the range
        with pytest.raises(NonFiniteResultError, match="not finite"):
            nmf(np.ldexp(Z, p), 4, beta, opts)
        return
    F = nmf(np.ldexp(Z, p), 4, beta, opts)
    assert np.array_equal(F.D, F0.D)
    assert np.array_equal(F.W, np.ldexp(F0.W, p))
    assert np.array_equal(F.divergence_trace, np.ldexp(F0.divergence_trace, int(p * beta)))
    assert F.divergence == F.divergence_trace[-1]
    assert F.normalized_divergence == F0.normalized_divergence


def test_times_pow2_scales_without_forming_the_power():
    from subtask_forge.factorize import _times_pow2

    x = np.array([0.0, 2.0 ** -200, 3.0, 1.0])
    with np.errstate(over="ignore"):
        got = _times_pow2(x, 1100.0)  # 2**1100 itself is not a float
    assert got[0] == 0.0 and got[1] == 2.0 ** 900 and np.isinf(got[2:]).all()
    assert np.array_equal(_times_pow2(x, -40.0), np.ldexp(x, -40))
    assert _times_pow2(np.array([1.0]), 0.5)[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_nmf_leaves_ordinary_basis_unscaled(monkeypatch):
    import subtask_forge.factorize as fz

    def no_scaling(*args):
        raise AssertionError("an ordinary basis must not be rescaled")

    monkeypatch.setattr(fz.np, "ldexp", no_scaling)
    for scale in (2.0 ** -60, 1.0, 2.0 ** 60):
        nmf(random_positive((6, 5)) * scale, 2, 1.0, NmfOptions(restarts=1, max_iter=5))


BASE = np.random.default_rng(0).uniform(1.0, 2.0, (5, 4))
#: name: (Z, the betas whose fit must come out finite; the others must raise)
EXTREME = {
    "huge": (BASE * 1e300, (0.0, 1.0, 0.5)),  # at beta 2 the divergence is ~1e600
    "tiny": (BASE * 1e-300, (0.0, 1.0, 2.0, 0.5)),
    "near limit beside ones": (np.array([[1.7e308, 1.0], [2.0, 3.0]]), ()),
    "subnormal beside ones": (np.array([[5e-324, 1.0], [2.0, 3.0]]), (0.0, 2.0, 0.5)),
}


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 0.5])
@pytest.mark.parametrize("name", sorted(EXTREME))
def test_nmf_extreme_basis_is_fitted_or_raises(name, beta):
    Z, finite_betas = EXTREME[name]
    opts = NmfOptions(restarts=2, max_iter=50, tol=0.0)
    if beta not in finite_betas:
        with pytest.raises(NonFiniteResultError, match="not finite"):
            nmf(Z, 1, beta, opts)
        return
    F = nmf(Z, 1, beta, opts)
    assert np.isfinite([F.divergence, F.normalized_divergence]).all()
    assert np.isfinite(F.D).all() and np.isfinite(F.W).all()
    if name in ("huge", "tiny"):  # the same fit as at the ordinary scale
        ref = nmf(BASE, 1, beta, opts)
        assert F.normalized_divergence == pytest.approx(ref.normalized_divergence, rel=1e-6)


@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_nmf_fits_basis_with_one_huge_entry(beta):
    # the product falls below 2**-53 of the huge entry; the KL objective
    # of that entry read log1p(-1) and the fit was refused as not finite
    Z = np.random.default_rng(0).uniform(1.1, 2.1, (6, 5))
    Z[2, 3] = 4.403238868807929e17
    F = nmf(Z, 2, beta, NmfOptions(restarts=1, max_iter=5))
    assert np.isfinite([F.divergence, F.normalized_divergence]).all()
    assert F.divergence == pytest.approx(beta_divergence(Z, F.D @ F.W, beta), rel=1e-12)


def test_nmf_zero_iterations_records_initial_objective():
    Z = random_positive((6, 5), seed=13)
    F = nmf(Z, 2, 1.0, NmfOptions(seed=0, restarts=2, max_iter=0))
    assert F.iterations == 0
    assert not F.converged
    assert F.divergence_trace.shape == (1,)


def test_refit_beats_appending_a_column():
    """Moving from k to k+1 refits everything; the k+1 columns are not the
    k columns plus one more, and the refit fits at least as well as the
    best rank-one addition to the frozen k solution."""
    from subtask_forge.domains import RoomsSpec, build_rooms

    L = build_rooms(RoomsSpec(2, 2, 3), r_step=-1.0, lam=20.0, twin_weight=0.01)
    Z = solve_task_basis(L)
    F4 = nmf(Z, 4, 1.0, NmfOptions(seed=0, restarts=5))
    F5 = nmf(Z, 5, 1.0, NmfOptions(seed=0, restarts=5))

    # oracle: hold the k=4 factors and fit one appended column by the same
    # multiplicative rule restricted to the new pair
    rng = np.random.default_rng(123)
    d = rng.uniform(0.1, 1.1, Z.shape[0])
    w = rng.uniform(0.1, 1.1, Z.shape[1])
    base = F4.D @ F4.W
    tiny = np.finfo(float).tiny
    for _ in range(2000):
        B = base + np.outer(d, w)
        d *= ((Z / B) @ w) / max(w.sum(), tiny)
        B = base + np.outer(d, w)
        w *= (d @ (Z / B)) / max(d.sum(), tiny)
    appended = beta_divergence(Z, base + np.outer(d, w), 1.0)
    assert F5.divergence <= appended

    # every k=4 column moved: no k=5 column reproduces it
    col_dist = np.abs(F4.D[:, :, None] - F5.D[:, None, :]).sum(axis=0)
    assert col_dist.min() > 0.05


# ---------------------------------------------------------------------------
# restarts split between this process and a forked child
# ---------------------------------------------------------------------------


#: Without an OpenBLAS thread setter every fit runs in one process.
needs_blas_setter = pytest.mark.skipif(fileio._blas_threads() is None,
                                       reason="no OpenBLAS thread setter in this process")
ABOVE_FLOOR = random_positive((256, 256), seed=11)  # 4 sweeps: exactly the floor
SPLIT_OPTS = NmfOptions(seed=0, restarts=5, max_iter=4, tol=0.0)  # best: restart 3


def assert_same_fit(F, G):
    for name in ("D", "W", "divergence_trace"):
        assert np.array_equal(getattr(F, name), getattr(G, name)), name
    assert (F.best_restart, F.converged, F.iterations) == (G.best_restart, G.converged,
                                                           G.iterations)


def one_cpu_fit(monkeypatch, Z, k, opts):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return nmf(Z, k, 1.0, opts)


@needs_blas_setter
def test_split_restarts_match_one_cpu_bits(rooms_Z, two_cpus, monkeypatch):
    opts = NmfOptions(seed=3, restarts=5, max_iter=40)
    split = nmf(rooms_Z, 16, 1.0, opts)
    assert len(two_cpus) == 1
    alone = one_cpu_fit(monkeypatch, rooms_Z, 16, opts)
    assert len(two_cpus) == 1
    assert_same_fit(split, alone)
    assert split.best_restart == 3  # from the child's half, restarts 3 and 4


@needs_blas_setter
def test_small_basis_splits_with_the_bits_of_a_serial_fit(taxi_Z, two_cpus, monkeypatch):
    # taxi-scan's fits: 125 x 125 is below the old 2^16-entry floor, but 300
    # sweeps make 4.7e6 entry-sweeps of work, far above the floor
    opts = NmfOptions(seed=1, restarts=2, max_iter=300, tol=0.0)
    split = nmf(taxi_Z, 5, 1.0, opts)
    assert taxi_Z.shape == (125, 125) and len(two_cpus) == 1
    alone = one_cpu_fit(monkeypatch, taxi_Z, 5, opts)
    get_threads, set_threads = fileio._blas_threads()
    before = get_threads()
    set_threads(3)
    try:
        with monkeypatch.context() as m:  # no setter: serial at three threads
            m.setattr(fileio, "_blas_threads", lambda: None)
            serial = nmf(taxi_Z, 5, 1.0, opts)
        assert get_threads() == 3
    finally:
        set_threads(before)
    assert len(two_cpus) == 1
    assert_same_fit(split, alone)
    assert_same_fit(split, serial)


@needs_blas_setter
@pytest.mark.parametrize("Z,restarts,cpus,expected", [
    (ABOVE_FLOOR, 2, {0, 1}, 1),
    (ABOVE_FLOOR[:, :255], 5, {0, 1}, 0),  # one column's work below the floor
    (ABOVE_FLOOR, 1, {0, 1}, 0),
    (ABOVE_FLOOR, 5, {0}, 0),
])
def test_fork_only_above_floor_with_restarts_and_a_spare_cpu(two_cpus, monkeypatch, Z,
                                                             restarts, cpus, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    nmf(Z, 3, 1.0, NmfOptions(seed=0, restarts=restarts, max_iter=4))
    assert len(two_cpus) == expected


@needs_blas_setter
def test_blas_runs_at_one_thread_only_in_multi_restart_fits(two_cpus, monkeypatch):
    get_threads, set_threads = fileio._blas_threads()
    seen = []
    real_run = factorize._run_restart

    def run(*args):
        seen.append(get_threads())
        return real_run(*args)

    monkeypatch.setattr(factorize, "_run_restart", run)
    before = get_threads()
    set_threads(3)
    try:
        one_cpu_fit(monkeypatch, ABOVE_FLOOR, 3, SPLIT_OPTS)
        assert seen == [1] * SPLIT_OPTS.restarts and get_threads() == 3
        seen.clear()
        nmf(ABOVE_FLOOR, 3, 1.0, NmfOptions(restarts=1, max_iter=2))
        nmf(ABOVE_FLOOR[:, :255], 3, 1.0, NmfOptions(restarts=2, max_iter=4))
        assert seen == [3, 3, 3] and get_threads() == 3
    finally:
        set_threads(before)


@needs_blas_setter
@pytest.mark.parametrize("attr,failure", CHILD_FAILURES)
def test_failed_child_half_is_fitted_by_parent(two_cpus, monkeypatch, attr, failure):
    expected = one_cpu_fit(monkeypatch, ABOVE_FLOOR, 3, SPLIT_OPTS)
    inject(monkeypatch, attr, failure)
    assert_same_fit(nmf(ABOVE_FLOOR, 3, 1.0, SPLIT_OPTS), expected)
    assert len(two_cpus) == (attr != "fork")


@needs_blas_setter
def test_failed_parent_half_kills_and_reaps_the_child(two_cpus, monkeypatch):
    get_threads, _ = fileio._blas_threads()
    before = get_threads()
    parent = os.getpid()
    real_run = factorize._run_restart

    def run(Z, k, beta, opts, r):
        if os.getpid() == parent:
            raise RuntimeError("simulated failure in the parent's half")
        time.sleep(60)  # the child would outlast the test unless killed
        return real_run(Z, k, beta, opts, r)

    monkeypatch.setattr(factorize, "_run_restart", run)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="parent's half"):
        nmf(ABOVE_FLOOR, 3, 1.0, SPLIT_OPTS)
    assert time.monotonic() - start < 30
    assert len(two_cpus) == 1
    assert get_threads() == before
    # the conftest fixture fails the test if the child is left unreaped


# ---------------------------------------------------------------------------
# rank selection
# ---------------------------------------------------------------------------


def test_find_elbow_first_slowdown():
    # gains .5, .2, .05, .01: ratios 2.5 at 2, 4 at 3, 5 at 4; the first
    # slowdown is at 2 but the sharpest is at 4
    assert find_elbow([1.0, 0.5, 0.3, 0.25, 0.24]) == 4
    # gains .2, .2, .05, .01: ratios 1 at 2 (no slowdown), 4 at 3, 5 at 4
    assert find_elbow([1.0, 0.8, 0.6, 0.55, 0.54]) == 4
    assert find_elbow([1.0, 0.9, 0.8, 0.7]) is None  # constant drops
    assert find_elbow([1.0, 1.0, 1.0]) is None  # zero drops never fire
    # gains .5, .5, 1e-20, 0: the 1e-20 gain is below eps * f(1), so it
    # counts as zero and the ratio at 3 is infinite; without the floor the
    # ratio at 3 is 5e19 and the round-off tail's infinite ratio at 4 wins
    assert find_elbow([1.0, 0.5, 1e-20, 0.0, 0.0]) == 3


def test_find_elbow_running_min_clipping():
    # a restart bump flattens to the running minimum; the flat spot is a
    # zero drop after a real one, so the slowdown registers right there
    assert find_elbow([1.0, 0.4, 0.45, 0.2, 0.19]) == 2
    # clipping keeps a bump from inflating the comparison drop: without it
    # |0.8 - 0.3| would mask the slowdown that the clipped curve shows at 2
    assert find_elbow([1.0, 0.3, 0.8, 0.25, 0.05]) == 2
    with pytest.raises(ValueError, match="at least 3"):
        find_elbow([1.0, 0.5])


def test_select_k_on_exact_rank3_blocks():
    # three groups of identical strictly positive columns: rank exactly 3.
    # Under beta=2 the best 2-group fit halves the baseline, so the gains
    # into 2 and into 3 are both about 0.5 and k=2 is no sharp slowdown.
    # The fit is exact at 3 (f(3) near 1e-28), so the gain out of 3 is at
    # or below the resolution floor and counts as zero, which gives k=3
    # the largest (infinite) ratio.
    block, groups, boost = 4, 3, 9.0
    n = block * groups
    cols = []
    for g in range(groups):
        p = np.ones(n)
        p[g * block:(g + 1) * block] += boost
        cols.extend([p.copy() for _ in range(block)])
    Z = np.array(cols).T
    for seed in (0, 1):
        sel = select_k(Z, 2.0, 6, NmfOptions(seed=seed, restarts=5))
        assert sel.k_star == 3
        assert sel.f.shape == (6,)
        assert sel.f[0] == pytest.approx(1.0, abs=1e-9)
        assert sel.f[2] < 1e-6


def test_select_k_on_rooms_2x2():
    # four rooms in the lazy-twin regime: one subtask per room
    Z = solve_task_basis(benchmark_rooms(2, 2))
    sel = select_k(Z, 1.0, 9, NmfOptions(seed=0, restarts=5))
    assert sel.k_star == 4


def test_select_k_validation():
    Z = random_positive((8, 6), seed=14)
    with pytest.raises(ValueError, match="k_max must be >= 3"):
        select_k(Z, 1.0, 2)
    with pytest.raises(FactorRankError, match="exceeds"):
        select_k(Z, 1.0, 7)


def test_select_k_matches_individual_fits():
    Z = random_positive((8, 6), seed=15)
    opts = NmfOptions(seed=3, restarts=2, max_iter=80)
    sel = select_k(Z, 1.0, 4, opts)
    for i, k in enumerate(range(1, 5)):
        assert sel.f[i] == nmf(Z, k, 1.0, opts).normalized_divergence


# ---------------------------------------------------------------------------
# on-disk form
# ---------------------------------------------------------------------------


def test_factorization_roundtrip(tmp_path):
    Z = random_positive((9, 7), seed=16)
    F = nmf(Z, 3, 1.0, NmfOptions(seed=4, restarts=2, max_iter=60))
    out = tmp_path / "fact"
    write_factorization(out, F)
    back = read_factorization(out)
    np.testing.assert_array_equal(back.D, F.D)
    np.testing.assert_array_equal(back.W, F.W)
    for field in ("beta", "k", "seed", "restarts", "iterations",
                  "divergence", "normalized_divergence", "converged",
                  "best_restart"):
        assert getattr(back, field) == getattr(F, field), field
    assert back.divergence_trace is None


def test_read_factorization_missing_meta_key(tmp_path):
    import json

    Z = random_positive((6, 5), seed=17)
    F = nmf(Z, 2, 1.0, NmfOptions(seed=0, restarts=1, max_iter=20))
    out = tmp_path / "fact"
    write_factorization(out, F)
    meta = json.loads((out / "meta.json").read_text())
    meta.pop("divergence")
    (out / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="missing field 'divergence'"):
        read_factorization(out)


def test_read_factorization_shape_mismatch(tmp_path):
    import json

    Z = random_positive((6, 5), seed=18)
    F = nmf(Z, 2, 1.0, NmfOptions(seed=0, restarts=1, max_iter=20))
    out = tmp_path / "fact"
    write_factorization(out, F)
    meta = json.loads((out / "meta.json").read_text())
    meta["k"] = 3
    (out / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="disagree with k=3"):
        read_factorization(out)


def test_write_k_curve_format(tmp_path):
    sel = KSelection(f=np.array([1.0, 0.25, 0.125]), k_star=2)
    path = tmp_path / "curve.csv"
    write_k_curve(path, sel)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,f"
    assert lines[1] == "1,1.0"
    assert lines[3] == "3,0.125"
