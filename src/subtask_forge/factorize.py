"""Subtask discovery: non-negative factorization of a desirability basis.

Approximates Z (n_interior x N_t, strictly positive) as a product D @ W of
nonnegative factors with inner dimension k, minimizing the beta-divergence
elementwise. beta = 2 is the squared Euclidean distance, beta = 1 the
generalized Kullback-Leibler divergence, beta = 0 the Itakura-Saito
divergence. Columns of D act as distributed subtasks; rows of W say how much
each task leans on each subtask.

Minimization is by multiplicative updates with the majorization-minimization
exponent, which keeps every recorded objective trace non-increasing for the
three named beta values. Divergences are evaluated with cancellation-free
per-entry terms so the traces are trustworthy at 1e-12 relative slack. Two
traces are taken from products the updates form anyway while a restart's
value lies above a floor, with an error of at most about 2e-13 relative,
and from the cancellation-free terms once it falls below:

- beta = 1 in quotient form, sum(Z log(Z / B)) - sum(Z) + sum(B) for
  B = D @ W, from the Z / B that the next update needs, above
  2**-7 (sum(Z) + sum(B));
- beta = 2 in Gram form, 0.5 ||Z||^2 - <D.T Z, W> + 0.5 <D.T D, W W.T>,
  from the products of the W update, above 2**-4 (0.5 ||Z||^2). Above that
  floor a beta = 2 restart forms no n x N array at all.

Restarts are independent. A fit of more than one restart on a Z of at least
``fileio._FORK_MIN_ENTRIES`` (2**16) entries runs BLAS at one thread, and a
forked child fits the second half of its restarts while this process fits
the first, when the process may run on more than one CPU. So such a fit has
the same bits on one CPU as on two. Should the fork or the child fail, this
process fits that half too. Without an OpenBLAS thread setter among the
loaded libraries, and for smaller or single-restart fits, every restart
runs here at the default BLAS thread count.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import FactorRankError, NonFiniteResultError
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


def beta_divergence(A, B, beta: float) -> float:
    """Elementwise beta-divergence d_beta(A || B), summed over all entries.

    A must be nonnegative (strictly positive when beta <= 0); B strictly
    positive when beta <= 1. Shapes must match.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if np.any(A < 0) or not np.all(np.isfinite(A)):
        raise ValueError("first argument must be finite and nonnegative")
    if not np.all(np.isfinite(B)):
        raise ValueError("second argument must be finite")
    if beta <= 0 and np.any(A <= 0):
        raise ValueError(f"beta={beta:g} requires a strictly positive first argument")
    if beta <= 1:
        if np.any(B <= 0):
            raise ValueError(f"beta={beta:g} requires a strictly positive second argument")
    elif np.any(B < 0):
        raise ValueError("second argument must be nonnegative")
    if beta == 1:
        pos = A > 0
        if not pos.all():  # a zero entry of A contributes B there
            return float(B[~pos].sum()) + _divergence(A[pos], B[pos], beta)
    return _divergence(A, B, beta)


def _divergence(A, B, beta: float, s1=None, s2=None) -> float:
    """d_beta(A || B) on inputs that meet :func:`beta_divergence`'s conditions.

    For beta = 1 every entry of A must be strictly positive. ``s1`` and
    ``s2`` are optional work arrays of A's shape that receive the
    elementwise terms (beta = 2 uses ``s1`` only); without them each term
    is a fresh array. Neither A nor B is written.
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


def _update_once(Z, D, W, B, beta, gamma, scratch, quotient):
    """One full sweep at beta != 2: update D in place, then W in place.

    ``B`` is ``D @ W`` on entry, the product the caller already formed for
    the objective; the sweep overwrites it with the intermediate product.
    The beta = 1 update writes its quotient Z / B into ``scratch[0]``; with
    ``quotient`` set, ``scratch[0]`` already holds Z / B on entry.
    """
    if beta == 1:
        Q = scratch[0] if quotient else np.divide(Z, B, out=scratch[0])
        D *= (Q @ W.T) / np.maximum(W.sum(axis=1)[None, :], _TINY)
        np.divide(Z, np.matmul(D, W, out=B), out=Q)
        W *= (D.T @ Q) / np.maximum(D.sum(axis=0)[:, None], _TINY)
    else:
        num = (B ** (beta - 2.0) * Z) @ W.T
        den = np.maximum(B ** (beta - 1.0) @ W.T, _TINY)
        D *= (num / den) ** gamma if gamma != 1.0 else num / den
        np.matmul(D, W, out=B)
        num = D.T @ (B ** (beta - 2.0) * Z)
        den = np.maximum(D.T @ B ** (beta - 1.0), _TINY)
        W *= (num / den) ** gamma if gamma != 1.0 else num / den


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


#: The beta = 1 objective in quotient form cancels: its error was measured at
#: most 7 eps (sum(Z) + sum(B)) / d. A restart whose value falls below this
#: fraction of sum(Z) + sum(B) takes the cancellation-free terms from then on,
#: which keeps the quotient form's error at or below about 2e-13 relative.
_QUOTIENT_FLOOR = 2.0 ** -7

#: The beta = 2 objective in Gram form cancels too: its error was measured at
#: most 23 eps (0.5 ||Z||^2), against a long-double reference, over 1715
#: values of 13 bases (20 x 16 to 1600 x 1600: rooms, taxi, random and exact
#: rank 4; k 2-64; up to 2000 sweeps); the median was 3 eps. A restart
#: whose value falls below this fraction of 0.5 ||Z||^2 takes the
#: cancellation-free terms from then on, which keeps the Gram form's error
#: at or below 23 eps * 16, about 8e-14 relative: 2e-13 holds up to 56 eps.
_GRAM_FLOOR = 2.0 ** -4


def _objective(Z, D, W, B, beta, scratch, sum_Z):
    """d_beta(Z || B) for B = D @ W, and whether ``scratch[0]`` now holds Z / B.

    With ``sum_Z`` (sum(Z); None except at beta = 1) the value is taken in
    quotient form, sum(Z log(Z / B)) - sum(Z) + sum(B), from the quotient the
    next D update needs anyway; sum(B) is colsum(D) . rowsum(W). Below the
    floor, or with ``sum_Z`` None, it is the cancellation-free
    :func:`_divergence`, which overwrites the work arrays.
    """
    if sum_Z is not None:
        Q = np.divide(Z, B, out=scratch[0])
        sum_B = float(D.sum(axis=0) @ W.sum(axis=1))
        # np.einsum, not a BLAS dot: np.vdot here was measured many times
        # slower inside the hierarchy command than inside factor
        d = float(np.einsum("ij,ij->", Z, np.log(Q, out=scratch[1]))) - sum_Z + sum_B
        if d >= _QUOTIENT_FLOOR * (sum_Z + sum_B):
            return d, True
    return _divergence(Z, B, beta, *scratch), False


def _gram_objective(half_zz, W, DtZ, DtD, WWt):
    """0.5 ||Z - D W||^2 in Gram form, 0.5 ||Z||^2 - <D.T Z, W> + 0.5 <D.T D, W W.T>,
    from ``half_zz`` = 0.5 ||Z||^2 and the products :func:`_frobenius_sweep`
    returns; None below the floor."""
    d = (half_zz - float(np.einsum("ij,ij->", DtZ, W))
         + 0.5 * float(np.einsum("ij,ij->", DtD, WWt)))
    return d if d >= _GRAM_FLOOR * half_zz else None


def _values(Z, D, W, beta):
    """Yield d_beta(Z || D @ W) for the given factors, then after each sweep
    of multiplicative updates, which change D and W in place (beta != 2).

    B and the n x N work arrays live as long as the generator; each sweep
    writes into them. nmf hands in a C-ordered Z, the order of B and the
    work arrays, so every elementwise pass reads all three in step. The
    beta = 1 value is in quotient form until it nears its cancellation
    floor; from then on the restart stays with the exact terms.
    """
    B = np.empty(Z.shape)
    scratch = [np.empty(Z.shape) for _ in range(2 if beta == 1 else 0)]
    gamma = _mu_exponent(beta)
    sum_Z = float(Z.sum()) if beta == 1 else None
    while True:
        np.matmul(D, W, out=B)
        d, quotient = _objective(Z, D, W, B, beta, scratch, sum_Z)
        yield d
        if not quotient:
            sum_Z = None
        _update_once(Z, D, W, B, beta, gamma, scratch, quotient)


def _frobenius_values(Z, D, W):
    """:func:`_values` at beta = 2. Each value is taken in Gram form from the
    products the sweep formed, so no n x N array is made, until it falls
    below ``_GRAM_FLOOR``; from then on the restart forms B = D @ W and
    takes the cancellation-free terms in a second n x N work array."""
    half_zz = 0.5 * float(np.einsum("ij,ij->", Z, Z))
    DtZ, DtD, WWt = D.T @ Z, D.T @ D, W @ W.T
    while (d := _gram_objective(half_zz, W, DtZ, DtD, WWt)) is not None:
        yield d
        DtZ, DtD, WWt = _frobenius_sweep(Z, D, W, WWt)
    B, work = np.empty(Z.shape), np.empty(Z.shape)
    while True:
        yield _divergence(Z, np.matmul(D, W, out=B), 2.0, work)
        WWt = _frobenius_sweep(Z, D, W, WWt)[2]


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


def _run_restart(Z, k, beta, opts, restart):
    rng = _restart_stream(opts.seed, k, restart)
    n, n_tasks = Z.shape
    D = rng.uniform(0.1, 1.1, size=(n, k))
    W = rng.uniform(0.1, 1.1, size=(k, n_tasks))
    scale = np.sqrt(Z.mean() / (D @ W).mean())
    D *= scale
    W *= scale

    # nmf has checked Z, and checks the fit for non-finite values at the end
    values = _frobenius_values(Z, D, W) if beta == 2 else _values(Z, D, W, beta)
    trace = [next(values)]
    converged = False
    for _ in range(opts.max_iter):
        d = next(values)
        trace.append(d)
        if trace[-2] - d <= opts.tol * max(trace[-2], _TINY):
            converged = True
            break
    return D, W, np.array(trace), converged


def _check_Z(Z) -> np.ndarray:
    Z = np.ascontiguousarray(Z, dtype=float)
    if Z.ndim != 2 or min(Z.shape) < 1:
        raise ValueError(f"Z must be a nonempty 2-D matrix, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)) or np.any(Z <= 0):
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


@functools.cache
def _blas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None if not found."""
    import ctypes  # loaded by numpy already

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if getter is not None and hasattr(lib, name):
                setter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def _fit_restarts(Z, k, beta, opts):
    """(r, run) of the best of ``opts.restarts`` restarts, as the module
    docstring says: above the floor at one BLAS thread, and the second half
    fitted by a forked child through :func:`fileio.split_work`, which refits
    that half here should the child fail. The thread count is restored on
    every path.
    """
    threads = _blas_threads() if opts.restarts > 1 and Z.size >= fileio._FORK_MIN_ENTRIES else None
    if threads is None:
        return _best_of(Z, k, beta, opts, range(opts.restarts))
    get_threads, set_threads = threads
    half = (opts.restarts + 1) // 2
    before = get_threads()
    set_threads(1)  # two processes at two threads each oversubscribe two cores
    try:
        if not fileio._spare_cpu():
            return _best_of(Z, k, beta, opts, range(opts.restarts))
        halves = fileio.split_work(
            functools.partial(_best_of, Z, k, beta, opts, range(half)),
            functools.partial(_best_of, Z, k, beta, opts, range(half, opts.restarts)))
        return min(halves, key=_rank)
    finally:
        set_threads(before)


def nmf(Z, k: int, beta: float = 1.0, opts: NmfOptions | None = None) -> Factorization:
    """Best-of-restarts multiplicative-update factorization Z ~ D @ W.

    Runs ``opts.restarts`` independently seeded initializations (uniform on
    (0.1, 1.1), scaled so mean(D @ W) = mean(Z)) and keeps the lowest final
    divergence, ties broken by restart index. Each restart stops when the
    relative objective improvement falls below ``opts.tol`` or after
    ``opts.max_iter`` sweeps; hitting the cap is recorded, not raised.

    The returned D has L1-normalized columns with the compensating scale
    folded into W, leaving D @ W unchanged. ``normalized_divergence`` is the
    final objective divided by d_beta(Z || mean(Z)).

    A Z whose largest entry lies outside 2**+-64 is factorized as Z / 4**e
    with that entry near 1; W is multiplied and the divergences are divided
    back by the exact powers of two. (At beta 0, 1 and 2 the sweeps are
    equivariant under such a scale: D comes out bit-identical.) A fit that
    is still not finite raises :class:`NonFiniteResultError`.
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
        best, (D, W, trace, converged) = _fit_restarts(Z, k, beta, opts)

        col_mass = np.maximum(D.sum(axis=0), _TINY)
        D = D / col_mass[None, :]
        W = W * col_mass[:, None]
        # a read-only view of the mean: no second n x N array at the peak
        baseline = beta_divergence(Z, np.broadcast_to(Z.mean(), Z.shape), beta)
        normalized = float(trace[-1]) / max(baseline, _TINY)
        if e:  # undo the scale: W times 4**e, divergences times 4**(e * beta)
            W = np.ldexp(W, 2 * e)
            trace = _times_pow2(trace, 2.0 * e * beta)
    divergence = float(trace[-1])
    if not (np.isfinite(divergence) and np.isfinite(normalized)
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
        iterations=len(trace) - 1,
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
    beta: float
    k_max: int
    restarts: int


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
    return KSelection(
        f=f, k_star=find_elbow(f), beta=float(beta), k_max=int(k_max),
        restarts=opts.restarts,
    )


# ---------------------------------------------------------------------------
# On-disk form
# ---------------------------------------------------------------------------


def write_factorization_files(dir_path, F: Factorization) -> None:
    """Write D.csv, W.csv and meta.json into an existing directory."""
    fileio.write_matrix_csv(os.path.join(dir_path, "D.csv"), F.D)
    fileio.write_matrix_csv(os.path.join(dir_path, "W.csv"), F.W)
    fileio.atomic_write_json(os.path.join(dir_path, "meta.json"), {
        "beta": F.beta,
        "k": F.k,
        "seed": F.seed,
        "restarts": F.restarts,
        "iterations": F.iterations,
        "divergence": F.divergence,
        "normalized_divergence": F.normalized_divergence,
        "converged": F.converged,
        "best_restart": F.best_restart,
    })


def read_factorization(dir_path) -> Factorization:
    D = fileio.read_matrix_csv(os.path.join(dir_path, "D.csv"))
    W = fileio.read_matrix_csv(os.path.join(dir_path, "W.csv"))
    meta = fileio.read_json(os.path.join(dir_path, "meta.json"))
    if not isinstance(meta, dict):
        raise ValueError(f"{dir_path}: meta.json must be an object")
    for key in ("beta", "k", "seed", "restarts", "iterations",
                "divergence", "normalized_divergence"):
        if key not in meta:
            raise ValueError(f"{dir_path}: meta.json is missing field '{key}'")
    if D.shape[1] != meta["k"] or W.shape[0] != meta["k"]:
        raise ValueError(
            f"{dir_path}: factor shapes {D.shape}/{W.shape} disagree with k={meta['k']}"
        )
    return Factorization(
        D=D,
        W=W,
        beta=float(meta["beta"]),
        k=int(meta["k"]),
        divergence=float(meta["divergence"]),
        normalized_divergence=float(meta["normalized_divergence"]),
        seed=int(meta["seed"]),
        restarts=int(meta["restarts"]),
        iterations=int(meta["iterations"]),
        converged=bool(meta.get("converged", True)),
        best_restart=int(meta.get("best_restart", 0)),
        divergence_trace=None,
    )


def write_k_curve(path, sel: KSelection) -> None:
    lines = ["k,f"]
    lines.extend(f"{k + 1},{repr(float(v))}" for k, v in enumerate(sel.f))
    fileio.atomic_write_text(path, "\n".join(lines) + "\n")
