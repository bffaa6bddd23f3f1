"""Subtask discovery: non-negative factorization of a desirability basis.

Approximates Z (n_interior x N_t, strictly positive) as a product D @ W of
nonnegative factors with inner dimension k, minimizing the beta-divergence
elementwise. beta = 2 is the squared Euclidean distance, beta = 1 the
generalized Kullback-Leibler divergence, beta = 0 the Itakura-Saito
divergence. Columns of D act as distributed subtasks; rows of W say how much
each task leans on each subtask.

Minimization is by multiplicative updates with the majorization-minimization
exponent, which never raises the value for the three named beta values, so
a restart records it only at sweep 0, every ``_VALUE_EVERY`` sweeps and
after its last sweep, and every recorded trace is non-increasing.
Divergences are evaluated with cancellation-free per-entry terms so the
traces are trustworthy at 1e-12 relative slack. At beta = 2 the value is
taken in Gram form, 0.5 ||Z||^2 - <D.T Z, W> + 0.5 <D.T D, W W.T>, from the
products of the W update, while it lies above 2**-4 (0.5 ||Z||^2), with an
error of at most about 8e-14 relative, and from the cancellation-free terms
once it falls below. Above that floor a beta = 2 fit forms no n x N array
at all: a restart's initial scale takes mean(D @ W) from the factors' sums,
and the baseline divergence is summed over row blocks of Z.

Restarts are independent. A fit of more than one restart whose work,
``Z.size * max_iter`` entry-sweeps, reaches ``_SPLIT_MIN_WORK`` (2**18)
runs BLAS at one thread, and a forked child fits the second half of its
restarts while this process fits the first, when the process may run on
more than one CPU. Should the fork or the child fail, this process fits
that half too. Without an OpenBLAS thread setter among the loaded
libraries every restart runs here, at the default BLAS thread count;
single-restart and smaller fits run here at that count too. OpenBLAS's
products give the same bits at one thread as at two, so every fit has the
same bits on one CPU as on two.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import FactorRankError, NonFiniteResultError
from .lmdp_core import _is_int, _is_number, _json_field, _read_only
from . import fileio

_TINY = np.finfo(float).tiny


# ---------------------------------------------------------------------------
# Divergence evaluation
# ---------------------------------------------------------------------------


def _omlp(t, num, den, scratch=None):
    """Pointwise t - log1p(t) for t = num / den - 1, the nonnegative kernel of
    the KL and IS terms.

    Overwrites ``t`` with the result; log1p(t) goes into ``scratch`` if given.
    Where t < -0.5 the term is (r - 1) - log r with r = num / den formed
    afresh on those entries only: t there has lost the low digits of r, and
    rounds to -1 (log1p(-1) = -inf) once r falls below about 2**-53.
    """
    low = np.less(t, -0.5)
    with np.errstate(divide="ignore"):  # t = -1 is among the entries redone below
        np.subtract(t, np.log1p(t, out=scratch), out=t)
    if low.any():
        r = num[low] / den[low]
        t[low] = (r - 1.0) - np.log(r)
    return t


def _divergence(A, B, beta: float, s1=None, s2=None) -> float:
    """Elementwise beta-divergence d_beta(A || B), summed over all entries.

    Nothing is checked here: A and B must be finite, nonnegative and of one
    shape, A strictly positive when beta <= 0 or beta = 1, and B strictly
    positive when beta <= 1. ``s1`` and ``s2`` are optional work arrays of
    A's shape that receive the elementwise terms (beta = 2 uses ``s1``
    only); without them each term is a fresh array. Neither A nor B is
    written.
    """
    if beta == 2:
        t = np.subtract(A, B, out=s1)
        return float(0.5 * np.square(t, out=t).sum())
    if beta == 1:
        t = np.subtract(B, A, out=s1)
        np.divide(t, A, out=t)
        return float(np.multiply(A, _omlp(t, B, A, s2), out=t).sum())
    if beta == 0:
        t = np.subtract(A, B, out=s1)
        return float(_omlp(np.divide(t, B, out=t), A, B, s2).sum())
    c = beta * (beta - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = (A ** beta + (beta - 1.0) * B ** beta - beta * A * B ** (beta - 1.0)) / c
    return float(term.sum())


# ---------------------------------------------------------------------------
# Multiplicative updates
# ---------------------------------------------------------------------------


def _mu_exponent(beta: float) -> float:
    """Majorization-minimization step exponent; 1 on the convex range [1, 2]."""
    if beta < 1:
        return 1.0 / (2.0 - beta)
    if beta <= 2:
        return 1.0
    return 1.0 / (beta - 1.0)


def _update_once(Z, D, W, B, beta, gamma, scratch):
    """One full sweep at beta != 2: update D in place, then W in place.

    ``B`` holds ``D @ W`` on entry and again on exit, for the next sweep or
    value. The beta = 1 update writes its quotient Z / B into ``scratch[0]``.
    """
    if beta == 1:
        Q = np.divide(Z, B, out=scratch[0])
        D *= (Q @ W.T) / np.maximum(W.sum(axis=1)[None, :], _TINY)
        np.divide(Z, np.matmul(D, W, out=B), out=Q)
        W *= (D.T @ Q) / np.maximum(D.sum(axis=0)[:, None], _TINY)
    else:
        num = (_power(B, beta - 2.0) * Z) @ W.T
        den = np.maximum(B ** (beta - 1.0) @ W.T, _TINY)
        D *= (num / den) ** gamma if gamma != 1.0 else num / den
        np.matmul(D, W, out=B)
        num = D.T @ (_power(B, beta - 2.0) * Z)
        den = np.maximum(D.T @ B ** (beta - 1.0), _TINY)
        W *= (num / den) ** gamma if gamma != 1.0 else num / den
    np.matmul(D, W, out=B)


def _power(B, p: float):
    """B ** p, at p = -2 (beta 0) as 1 / (B * B): two correctly rounded steps,
    which commute with a power-of-4 scale of B, as pow() there does not."""
    if p != -2.0:
        return B ** p
    t = np.square(B)
    return np.reciprocal(t, out=t)


def _frobenius_sweep(Z, D, W, WWt):
    """One full beta = 2 sweep, D then W in place, given ``WWt`` = W @ W.T.

    Returns D.T @ Z and D.T @ D, the products the W update formed, and the
    new W @ W.T, which the next sweep's D update and the Gram-form objective
    both use. None of them is n x N.
    """
    D *= (Z @ W.T) / np.maximum(D @ WWt, _TINY)
    DtZ, DtD = D.T @ Z, D.T @ D
    W *= DtZ / np.maximum(DtD @ W, _TINY)
    return DtZ, DtD, W @ W.T


#: The beta = 2 objective in Gram form cancels: its error was measured at
#: most 23 eps (0.5 ||Z||^2), against a long-double reference, over 1715
#: values of 13 bases (20 x 16 to 1600 x 1600: rooms, taxi, random and exact
#: rank 4; k 2-64; up to 2000 sweeps); the median was 3 eps. A restart
#: whose value falls below this fraction of 0.5 ||Z||^2 takes the
#: cancellation-free terms from then on, which keeps the Gram form's error
#: at or below 23 eps * 16, about 8e-14 relative: 2e-13 holds up to 56 eps.
_GRAM_FLOOR = 2.0 ** -4


def _gram_objective(half_zz, W, DtZ, DtD, WWt):
    """0.5 ||Z - D W||^2 in Gram form, 0.5 ||Z||^2 - <D.T Z, W> + 0.5 <D.T D, W W.T>,
    from ``half_zz`` = 0.5 ||Z||^2 and the products :func:`_frobenius_sweep`
    returns; None below the floor."""
    d = (half_zz - float(np.einsum("ij,ij->", DtZ, W))
         + 0.5 * float(np.einsum("ij,ij->", DtD, WWt)))
    return d if d >= _GRAM_FLOOR * half_zz else None


@dataclass(frozen=True)
class NmfOptions:
    max_iter: int = 500
    tol: float = 1e-9
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class Factorization:
    """Result of one nmf() call: best restart, with D columns L1-normalized."""

    D: np.ndarray
    W: np.ndarray
    beta: float
    k: int
    divergence: float
    normalized_divergence: float
    seed: int
    restarts: int
    iterations: int
    converged: bool
    best_restart: int
    divergence_trace: np.ndarray | None = None


def _restart_stream(seed: int, k: int, restart: int) -> np.random.Generator:
    """Independent generator per (seed, k, restart); schedule-independent."""
    return np.random.default_rng([seed, k, restart])


#: Sweeps between a restart's recorded values; the stop rule reads no
#: other. One-restart fits at tol 0, median ms of 9 by m: rooms 400 x 400
#: KL k 16 x 80 sweeps / taxi 125 x 125 KL k 5 x 300 / taxi IS k 5 x 300:
#: 1 156.9 / 46.0 / 75.8, 2 113.5 / 32.1 / 60.1, 5 90.4 / 24.1 / 49.9,
#: 10 83.3 / 21.0 / 46.4, 20 80.1 / 19.9 / 44.3, 40 81.2 / 19.2 / 43.8.
#: Past 10 the gain is under 5%, and a restart that stops by the rule runs
#: up to m - 1 sweeps past the value that stopped it.
_VALUE_EVERY = 10


def _run_restart(Z, k, beta, opts, restart):
    """(D, W, trace, sweeps, converged) of one seeded restart: the trace holds
    d_beta(Z || D @ W) at sweep 0, every ``_VALUE_EVERY`` sweeps after that
    and after the last sweep, which is the stop rule's or ``opts.max_iter``.

    The stop rule compares consecutive values d_prev and d, taken s sweeps
    apart: the restart stops when d_prev - d <= opts.tol * s * d_prev, so
    ``tol`` bounds the mean relative improvement per sweep. The value is
    taken at beta 2 in Gram form from the products of the last sweep, with
    no n x N array, until it falls below its floor; from then on, and at
    every other beta, it is the cancellation-free :func:`_divergence` of
    B = D @ W. At beta != 2 every sweep leaves B behind; at beta 2 the
    switch makes B and one work array, and each value forms B. nmf hands in
    a C-ordered Z, the order of B and the work arrays, so every elementwise
    pass reads all three in step.
    """
    rng = _restart_stream(opts.seed, k, restart)
    n, n_tasks = Z.shape
    D = rng.uniform(0.1, 1.1, size=(n, k))
    W = rng.uniform(0.1, 1.1, size=(k, n_tasks))
    # mean(D @ W) = (D 1).T (W 1) / (n N), with no n x N product
    scale = np.sqrt(Z.mean() / (float(D.sum(axis=0) @ W.sum(axis=1)) / Z.size))
    D *= scale
    W *= scale

    # nmf has checked Z, and checks the fit for non-finite values at the end
    gamma = _mu_exponent(beta)
    if beta == 2:  # B stays None while the Gram value holds
        B, half_zz = None, 0.5 * float(np.einsum("ij,ij->", Z, Z))
        DtZ, DtD, WWt = D.T @ Z, D.T @ D, W @ W.T
    else:
        B, scratch = D @ W, [np.empty(Z.shape) for _ in range(2 if beta == 1 else 0)]
    trace, last = [], 0
    for sweep in range(opts.max_iter + 1):  # returns at max_iter at the latest
        if sweep % _VALUE_EVERY == 0 or sweep == opts.max_iter:
            d = None if B is not None else _gram_objective(half_zz, W, DtZ, DtD, WWt)
            if d is None:
                if B is None:  # the Gram value fell below its floor
                    B, scratch = np.empty(Z.shape), [np.empty(Z.shape)]
                if beta == 2:  # a beta-2 sweep leaves no D @ W behind
                    np.matmul(D, W, out=B)
                d = _divergence(Z, B, beta, *scratch)
            stop = bool(trace) and (trace[-1] - d
                                    <= opts.tol * (sweep - last) * max(trace[-1], _TINY))
            trace.append(d)
            if stop or sweep == opts.max_iter:
                return D, W, np.array(trace), sweep, stop
            last = sweep
        if beta == 2:
            DtZ, DtD, WWt = _frobenius_sweep(Z, D, W, WWt)
        else:
            _update_once(Z, D, W, B, beta, gamma, scratch)


#: Entries per row block of the baseline divergence: its terms are arrays of
#: one block, never of Z's size.
_BASELINE_ENTRIES = 1 << 16


def _baseline(Z, beta: float) -> float:
    """d_beta(Z || mean(Z)), summed over row blocks of ``_BASELINE_ENTRIES``.

    Z and its mean (a read-only view) are finite and positive, so no input
    checks. At beta 1 or <= 0 an entry the scale flushed to zero makes the
    value non-finite, which nmf raises.
    """
    mean, rows = Z.mean(), max(1, _BASELINE_ENTRIES // Z.shape[1])
    blocks = (Z[i:i + rows] for i in range(0, len(Z), rows))
    return sum(_divergence(A, np.broadcast_to(mean, A.shape), beta) for A in blocks)


def _check_Z(Z) -> np.ndarray:
    Z = np.ascontiguousarray(Z, dtype=float)
    if Z.ndim != 2 or min(Z.shape) < 1:
        raise ValueError(f"Z must be a nonempty 2-D matrix, got shape {Z.shape}")
    # reductions, not n x N masks; a NaN fails the first comparison
    if not (Z.min() > 0 and Z.max() < np.inf):
        raise ValueError("Z entries must be finite and strictly positive")
    return Z


#: nmf leaves Z unscaled while its largest entry lies in [2^-64, 2^64]. Then
#: the squares and reciprocal squares that the sweeps form at beta in [0, 2]
#: stay far inside the float range, and any overflow comes from the spread
#: of Z's entries, which no common scale can narrow.
_UNSCALED_EXP2 = 64


def _scale_exponent(Z) -> int:
    """The e for which Z / 4**e has its largest entry in [0.5, 2), or 0.

    0 when the largest entry already lies within 2**+-_UNSCALED_EXP2, so that
    every such input is factorized exactly as given.
    """
    _, exp2 = np.frexp(Z.max())
    return int(exp2) // 2 if abs(int(exp2)) > _UNSCALED_EXP2 else 0


def _times_pow2(x, p: float):
    """x * 2**p without forming 2**p, which may overflow where the product
    does not; exact when p is an integer."""
    n = np.floor(p)
    return np.ldexp(x * np.exp2(p - n), int(np.clip(n, -4096, 4096)))


def _rank(item):
    """Restarts rank by final value, ties broken by index."""
    r, run = item
    return run[2][-1], r


def _best_of(Z, k, beta, opts, restarts):
    """(r, run) of the best of the restarts numbered in ``restarts``."""
    return min(((r, _run_restart(Z, k, beta, opts, r)) for r in restarts), key=_rank)


#: Least work, in entry-sweeps (``Z.size * max_iter``), of a multi-restart
#: fit whose second half of restarts a forked child fits. A split adds
#: about 3.5 ms (taxi at 3 sweeps: 1.1-1.9 ms serial, 4.8-5.5 split).
#: Two-restart KL fits at tol 0 on 2 cores, median ms serial / split
#: (split faster in n of 45):
#: taxi 125 x 125 at 2^18 4.6 / 6.6 (3), 2^19 7.9 / 8.3 (10), 2^20 11.3 /
#: 9.7 (43), 2^21 22.8 / 15.7 (44); random 36 x 36 at 2^17 6.2 / 5.9 (16),
#: 2^18 10.9 / 8.6 (33); 5 x 125 at 2^17 6.8 / 9.6 (11), 2^18 21.6 / 15.3
#: (42). The small bases break even near 2^18, the taxi basis between 2^19
#: and 2^20: a value every ``_VALUE_EVERY`` sweeps made its sweeps cheaper.
_SPLIT_MIN_WORK = 1 << 18


def _fit_restarts(Z, k, beta, opts):
    """(r, run) of the best of ``opts.restarts`` restarts, as the module
    docstring says: a multi-restart fit of at least ``_SPLIT_MIN_WORK``
    runs at one BLAS thread, its second half fitted by a forked child
    through :func:`fileio.split_work`, which refits that half here should
    the child fail.
    """
    if opts.restarts < 2 or Z.size * opts.max_iter < _SPLIT_MIN_WORK:
        return _best_of(Z, k, beta, opts, range(opts.restarts))
    half = (opts.restarts + 1) // 2
    with fileio.one_blas_thread() as one_thread:
        if not (one_thread and fileio._spare_cpu()):
            return _best_of(Z, k, beta, opts, range(opts.restarts))
        halves = fileio.split_work(
            functools.partial(_best_of, Z, k, beta, opts, range(half)),
            functools.partial(_best_of, Z, k, beta, opts, range(half, opts.restarts)))
    return min(halves, key=_rank)


def nmf(Z, k: int, beta: float = 1.0, opts: NmfOptions | None = None) -> Factorization:
    """Best-of-restarts multiplicative-update factorization Z ~ D @ W.

    Runs ``opts.restarts`` independently seeded initializations (uniform on
    (0.1, 1.1), scaled so mean(D @ W) = mean(Z)) and keeps the lowest final
    divergence, ties broken by restart index. Each restart stops when the
    mean relative improvement per sweep between its recorded values falls
    to ``opts.tol`` or below, or after ``opts.max_iter`` sweeps; hitting
    the cap is recorded, not raised, and ``iterations`` counts the sweeps
    run.

    The returned D has L1-normalized columns with the compensating scale
    folded into W, leaving D @ W unchanged. ``normalized_divergence`` is the
    final objective divided by d_beta(Z || mean(Z)).

    A Z whose largest entry lies outside 2**+-64 is factorized as Z / 4**e
    with that entry near 1; W is multiplied and the divergences are divided
    back by the exact powers of two. At beta 0, 1 and 2 the whole fit is
    equivariant under any such scale: D comes out bit-identical, W and the
    divergence scaled by exact powers of two. Other betas are left out of
    that claim: at beta 1.5, ``B ** (beta - 2)`` does not scale exactly, and
    D moved by up to 1e-15 relative. A fit that is still not finite raises
    :class:`NonFiniteResultError`, as does a fit scaled down at beta > 0
    whose value fell below the smallest normal float while D @ W missed Z.
    """
    opts = opts or NmfOptions()
    Z = _check_Z(Z)
    k = int(k)
    if not 1 <= k <= min(Z.shape):
        raise FactorRankError(
            f"k must lie in [1, {min(Z.shape)}] for a {Z.shape[0]}x{Z.shape[1]} basis, got {k}"
        )
    beta = float(beta)
    if not np.isfinite(beta):
        raise ValueError(f"beta must be a finite number, got {beta}")

    e = _scale_exponent(Z)
    if e:
        Z = np.ldexp(Z, -2 * e)
    # an overflow anywhere in the fit shows as a non-finite result, raised below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best, (D, W, trace, sweeps, converged) = _fit_restarts(Z, k, beta, opts)
        # a value below the smallest normal float has lost its terms to
        # underflow unless D @ W is Z, and scaling it back up by 4**(e * beta)
        # would report what was lost as nothing
        underflow = e * beta > 0 and trace[-1] < _TINY and not np.array_equal(D @ W, Z)

        col_mass = np.maximum(D.sum(axis=0), _TINY)
        D = D / col_mass[None, :]
        W = W * col_mass[:, None]
        baseline = _baseline(Z, beta)
        normalized = float(trace[-1]) / max(baseline, _TINY)
        if e:  # undo the scale: W times 4**e, divergences times 4**(e * beta)
            W = np.ldexp(W, 2 * e)
            trace = _times_pow2(trace, 2.0 * e * beta)
    divergence = float(trace[-1])
    if underflow or not (np.isfinite(divergence) and np.isfinite(normalized)
            and np.isfinite(D).all() and np.isfinite(W).all()):
        raise NonFiniteResultError(
            f"the k={k} beta={beta:g} fit is not finite (divergence {divergence:g}); "
            "Z's entries span more than floating point can carry through the fit"
        )
    for a in (D, W, trace):
        a.setflags(write=False)

    return Factorization(
        D=D,
        W=W,
        beta=beta,
        k=k,
        divergence=divergence,
        normalized_divergence=normalized,
        seed=opts.seed,
        restarts=opts.restarts,
        iterations=sweeps,
        converged=converged,
        best_restart=best,
        divergence_trace=trace,
    )


# ---------------------------------------------------------------------------
# Rank selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KSelection:
    """Divergence curve over k = 1..k_max and its elbow pick.

    ``k_star`` is :func:`find_elbow` of ``f``: the sharpest slowdown of the
    clipped curve, or None if its gain never shrinks.
    """

    f: np.ndarray
    k_star: int | None


def find_elbow(f) -> int | None:
    """The k in [2, k_max-1] where the marginal improvement shrinks the most.

    The curve is first clipped to its running minimum so that restart noise
    cannot fabricate or hide an elbow. On the clipped curve g the gain into
    k is g(k-1) - g(k) and the gain out of k is g(k) - g(k+1); a gain at or
    below the curve's resolution, eps * g(1), counts as zero, so the
    round-off tail of a converged exact fit cannot outrank the real elbow.
    The pick is the k whose ratio (gain into k) / (gain out of k) is
    largest among those where the gain shrinks (a zero gain out of k gives
    an infinite ratio); ties go to the smallest such k, and None means the
    gain never shrinks.

    Taking the largest ratio rather than the first ratio above 1 matters on
    convex curves, where every gain is smaller than the one before it and
    the first slowdown is nearly always k=2. Two limits were measured:

    - an exact fit stopped above the floor leaves a small nonzero tail
      whose own ratios can outrank the drop at r and shift the pick past
      r. On 16 planted rank-r products (r = 3..6, 60x50, beta 1 and 2),
      2000 sweeps left 12 curves with f(r) between 1e-16 and 1e-5, and
      each of those picked r+1 or r+2; fits run to f(r) < 1e-25 picked r
      on all 16;
    - a restart bump is clipped to a zero gain, which reads as a slowdown
      with an infinite ratio: on the 4x4 rooms ensemble (k_max 20) with
      only 2 restarts, seed 0 picked 5 and seed 1 picked 16.
    """
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.size < 3:
        raise ValueError(f"elbow detection needs at least 3 points, got {f.size}")
    g = np.minimum.accumulate(f)
    gain = g[:-1] - g[1:]  # gain[i]: from k = i+1 to k = i+2
    gain[gain <= np.finfo(float).eps * g[0]] = 0.0
    best, best_ratio = None, 0.0
    for k in range(2, f.size):
        into, out = gain[k - 2], gain[k - 1]
        if out < into:
            ratio = into / out if out > 0 else np.inf
            if ratio > best_ratio:
                best, best_ratio = k, ratio
    return best


def select_k(Z, beta: float, k_max: int, opts: NmfOptions | None = None) -> KSelection:
    """Evaluate f(k) = best normalized divergence for k = 1..k_max, pick the elbow.

    The pick is :func:`find_elbow` of the curve, the sharpest slowdown. An
    exact fit stopped above the curve's resolution (too few sweeps) or a
    restart bump (too few restarts) can move it off the true rank; see
    :func:`find_elbow` for the measured cases.
    """
    opts = opts or NmfOptions()
    Z = _check_Z(Z)
    if k_max < 3:
        raise ValueError(f"k_max must be >= 3, got {k_max}")
    if k_max > min(Z.shape):
        raise FactorRankError(
            f"k_max={k_max} exceeds min(Z.shape)={min(Z.shape)}"
        )
    f = np.array([
        nmf(Z, k, beta, opts).normalized_divergence for k in range(1, k_max + 1)
    ])
    f.setflags(write=False)
    return KSelection(f=f, k_star=find_elbow(f))


# ---------------------------------------------------------------------------
# On-disk form
# ---------------------------------------------------------------------------


def write_factorization_files(dir_path, F: Factorization) -> None:
    """Write D.csv, W.csv and meta.json into an existing directory."""
    fileio.write_matrix_csv(os.path.join(dir_path, "D.csv"), F.D)
    fileio.write_matrix_csv(os.path.join(dir_path, "W.csv"), F.W)
    fileio.atomic_write_json(os.path.join(dir_path, "meta.json"),
                             {key: getattr(F, key) for key in _META_FIELDS})


#: meta.json fields in their written order, each required: name -> (accepts, kind).
_META_FIELDS = {
    "beta": (_is_number, "a number"),
    "k": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "restarts": (_is_int, "an integer"),
    "iterations": (_is_int, "an integer"),
    "divergence": (_is_number, "a number"),
    "normalized_divergence": (_is_number, "a number"),
    "converged": (lambda v: isinstance(v, bool), "true or false"),
    "best_restart": (_is_int, "an integer"),
}


def read_factorization(dir_path) -> Factorization:
    """Read a factorization directory; invalid content raises ValueError.

    D and W must hold finite nonnegative entries, and meta.json's fields
    their JSON types (a JSON true is not a count). D and W are read-only,
    as :func:`nmf` returns them.
    """
    D, W = (_read_only(fileio.read_matrix_csv(os.path.join(dir_path, name)))
            for name in ("D.csv", "W.csv"))
    for name, M in (("D.csv", D), ("W.csv", W)):
        if not np.all((M >= 0) & (M < np.inf)):
            raise ValueError(f"{os.path.join(dir_path, name)}: entries must be "
                             "finite and nonnegative")
    meta = fileio.read_json(os.path.join(dir_path, "meta.json"))
    if not isinstance(meta, dict):
        raise ValueError(f"{dir_path}: meta.json must be an object")
    for key, (accepts, kind) in _META_FIELDS.items():
        if key not in meta:
            raise ValueError(f"{dir_path}: meta.json is missing field '{key}'")
        _json_field(meta, key, accepts, kind, f"{os.path.join(dir_path, 'meta.json')}:")
    if D.shape[1] != meta["k"] or W.shape[0] != meta["k"]:
        raise ValueError(
            f"{dir_path}: factor shapes {D.shape}/{W.shape} disagree with k={meta['k']}"
        )
    return Factorization(D=D, W=W, **{key: meta[key] for key in _META_FIELDS})


def write_k_curve(path, sel: KSelection) -> None:
    lines = ["k,f"]
    lines.extend(f"{k + 1},{repr(float(v))}" for k, v in enumerate(sel.f))
    fileio.atomic_write_text(path, "\n".join(lines) + "\n")
