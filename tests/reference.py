"""Independent oracles that the tests hold the package to.

No command runs these, so they live beside the tests and not in the
package. Each computes its answer by a route of its own: the fixed-point
iteration against the direct solve, nonnegative least squares against the
blend law, the plain elementwise sum against the fused divergences of the
fits. Tests import this module the way they import ``conftest``; pytest does
not collect it.
"""

import numpy as np
from scipy.optimize import nnls

from subtask_forge.analysis import _l1_columns
from subtask_forge.factorize import _divergence
from subtask_forge.hierarchy import HierarchicalMlmdp


def solve_iterative(L, q_b, tol: float = 1e-12, max_iter: int = 10_000) -> np.ndarray:
    """Desirability of the boundary rewards ``q_b`` by fixed-point iteration.

    Repeats ``z <- g * (P_ii^T z + P_bi^T q_b)`` from ``z = 1`` until the
    max-norm change drops below ``tol``; acceptance criterion 1 compares the
    direct solve with it.
    """
    q = np.asarray(q_b, dtype=float).reshape(-1)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    g = L.exp_rewards()
    c = L.dynamics.bi.t_dot(q)
    z = np.ones(L.n_interior)
    for _ in range(max_iter):
        z_new = g * (L.dynamics.ii.t_dot(z) + c)
        delta = np.max(np.abs(z_new - z)) if z.size else 0.0
        z = z_new
        if delta < tol:
            return z
    raise AssertionError(
        f"fixed-point iteration did not reach tol={tol:g} after {max_iter} iterations"
    )


def compose(Q, Z, q):
    """Express a boundary reward as a nonnegative blend of basis tasks.

    Returns ``(w, z)`` where ``w`` minimizes ``||Qw - q||_2`` subject to
    ``w >= 0`` and ``z = Z @ w`` is the blended desirability. When ``q`` lies
    in the nonnegative column span of Q the residual is numerically zero and
    ``z`` solves the LMDP for ``q`` exactly (linearity of the solve): the
    paper's blend law, acceptance criterion 2.
    """
    Q = np.asarray(Q, dtype=float)
    Z = np.asarray(Z, dtype=float)
    q = np.asarray(q, dtype=float).reshape(-1)
    if Q.ndim != 2:
        raise ValueError(f"Q must be 2-D, got ndim={Q.ndim}")
    if Z.ndim != 2 or Z.shape[1] != Q.shape[1]:
        raise ValueError(
            f"Z must have one column per task ({Q.shape[1]}), got shape {Z.shape}"
        )
    if q.shape != (Q.shape[0],):
        raise ValueError(f"q has {q.size} entries, expected {Q.shape[0]}")
    if np.any(q < 0) or not np.all(np.isfinite(q)):
        raise ValueError("q entries must be finite and nonnegative")
    w, _ = nnls(Q, q)
    return w, Z @ w


def beta_divergence(A, B, beta: float) -> float:
    """Elementwise beta-divergence d_beta(A || B), summed over all entries.

    A must be nonnegative (strictly positive when beta <= 0); B strictly
    positive when beta <= 1. Shapes must match. Fits use fused forms of
    it; this direct sum is the reference the tests hold their traces to.
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


def circular_spread(D, n_positions: int | None = None) -> np.ndarray:
    """Circular standard deviation of each column's mass over ring positions.

    Treats column entries as weights on positions 0..n-1 of a ring and
    computes sqrt(-2 ln R) per column, R being the mean resultant length.
    Near-point masses give ~0; uniform spread gives large values. Acceptance
    criterion 10 reads its mean per ring level.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise ValueError(f"D must be 2-D, got ndim={D.ndim}")
    n = D.shape[0] if n_positions is None else int(n_positions)
    if n != D.shape[0]:
        raise ValueError(f"D has {D.shape[0]} rows, expected {n} ring positions")
    Dn = _l1_columns(D)
    angles = 2.0 * np.pi * np.arange(n) / n
    resultant = np.abs(np.exp(1j * angles) @ Dn)
    resultant = np.clip(resultant, np.finfo(float).tiny, 1.0)
    return np.sqrt(np.maximum(-2.0 * np.log(resultant), 0.0))


def grounded_subtasks(H: HierarchicalMlmdp, level: int) -> np.ndarray:
    """Level ``level`` subtask footprints expressed over base interior states.

    The column-stochastic product ``d_hat_0 @ ... @ d_hat_level`` of the
    normalized footprints of the levels up to ``level``; acceptance
    criterion 10 measures the spread of each level with it.
    """
    if not 0 <= level < H.depth:
        raise ValueError(f"level must lie in [0, {H.depth - 1}], got {level}")
    G = H.layers[0].d_hat.copy()
    for layer in H.layers[1:level + 1]:
        G = G @ layer.d_hat
    return G
