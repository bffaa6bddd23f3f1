"""Task ensembles over one LMDP: basis construction, batch solving, composition.

The task basis Q stacks exponentiated boundary rewards, one column per task.
Solving every task against shared passive dynamics yields the desirability
basis Z; because the underlying system is linear, any nonnegative blend
q = Qw solves to z = Zw, which is what :func:`compose` exploits.
"""

from __future__ import annotations

import numpy as np

from .lmdp_core import Lmdp, _FiniteExitSystem

#: Floor applied to zero entries of q_b so every desirability stays positive.
DEFAULT_Q_FLOOR = 1e-12


def build_uniform_task_basis(L: Lmdp) -> np.ndarray:
    """One goal task per boundary state: Q is the n_boundary identity. Commands
    solve it unformed; tests check that path against it, microbench times it."""
    return np.eye(L.n_boundary)


def check_task_basis(L: Lmdp, Q) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != L.n_boundary:
        raise ValueError(
            f"Q must have {L.n_boundary} rows (one per boundary state), "
            f"got shape {Q.shape}"
        )
    if not np.all(np.isfinite(Q)) or np.any(Q < 0):
        raise ValueError("Q entries must be finite and nonnegative")
    if np.any(Q.max(axis=0) <= 0):
        bad = int(np.argmin(Q.max(axis=0)))
        raise ValueError(f"task column {bad} has no positive entry")
    return Q


def solve_task_basis(L: Lmdp, Q=None, q_floor: float = DEFAULT_Q_FLOOR, out=None):
    """Desirability basis Z: column t solves the LMDP with boundary reward Q[:, t].

    Q None (the default) is the uniform task basis of
    :func:`build_uniform_task_basis`, one goal task per boundary state. It is
    never formed: each block of its columns is built inside the solve, with
    the same bits as an explicit identity.

    Zero entries of each task column are floored at ``q_floor`` so that all
    desirabilities are strictly positive (finite values in the log domain).
    A failed check names the first failing task, "task t: ...".

    ``out`` None returns Z as a fresh C-ordered array. Otherwise each
    checked block of columns is stored as ``out[:, first:stop] = block``,
    first to last, and ``out`` is returned: a :class:`fileio.Spill` keeps Z
    in a file instead of in memory.

    Memory: besides an explicit Q and ``out``, the solve holds its system
    and a few arrays of one block of columns, each of
    ``SOLVE_BLOCK_ENTRIES`` = 2^16 entries (0.5 MB; 40 columns at 1600
    interior states). The system is the sparse LU factors above
    ``lmdp_core.DENSE_MAX_STATES`` interior states, and at or below it the
    dense n x n inverse of ``I - T`` (6.5 MB at 900 states); ``I - T``
    itself exists only while it is factored. On the sparse path, with a
    spill as ``out``, nothing of Z's size is held.
    """
    if Q is not None:
        Q = check_task_basis(L, Q)
    if not 0 < q_floor < 1e-3:
        raise ValueError(f"q_floor must lie in (0, 1e-3), got {q_floor}")
    return _FiniteExitSystem(L).solve(Q, q_floor, out)


def compose(Q, Z, q):
    """Express a boundary reward as a nonnegative blend of basis tasks.

    Returns ``(w, z)`` where ``w`` minimizes ``||Qw - q||_2`` subject to
    ``w >= 0`` and ``z = Z @ w`` is the blended desirability. When ``q`` lies
    in the nonnegative column span of Q the residual is numerically zero and
    ``z`` solves the LMDP for ``q`` exactly (linearity of the solve).
    No command composes tasks: this is the paper's blend law (acceptance
    criterion 2) as a library call.
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
    from scipy.optimize import nnls  # slow to import; deferred to its caller

    w, _ = nnls(Q, q)
    return w, Z @ w
