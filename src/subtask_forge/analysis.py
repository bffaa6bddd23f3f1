"""Quantitative views on discovered subtasks.

Three families of questions: are two subtask sets the same up to relabeling
(matched squared distance after L1 normalization), where do subtask regions
meet (boundary scores from representation change across passive transitions),
and do subtasks line up with known domain regions (assignment purity).
"""

from __future__ import annotations

import numpy as np

from .factorize import Factorization
from .lmdp_core import Lmdp


def _l1_columns(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return M / np.maximum(M.sum(axis=0, keepdims=True), np.finfo(float).tiny)


def subtask_distance(F1: Factorization, F2: Factorization,
                     compare_product: bool = False) -> float:
    """Minimal squared Frobenius distance between matched subtask columns.

    Columns of both D matrices are L1-normalized, then optimally paired
    (assignment over all column permutations), removing the permutation and
    scale ambiguity inherent to the factorization. With ``compare_product``
    the reconstructions D1 @ W1 and D2 @ W2 are compared instead, with no
    matching step (products carry no column ambiguity).
    """
    if compare_product:
        P1, P2 = F1.D @ F1.W, F2.D @ F2.W
        if P1.shape != P2.shape:
            raise ValueError(f"product shapes differ: {P1.shape} vs {P2.shape}")
        return float(np.square(P1 - P2).sum())
    if F1.D.shape != F2.D.shape:
        raise ValueError(f"D shapes differ: {F1.D.shape} vs {F2.D.shape}")
    A = _l1_columns(F1.D)
    B = _l1_columns(F2.D)
    # cost[i, j] = ||A[:, i] - B[:, j]||^2, expanded to avoid a k^2 loop
    sq_a = np.square(A).sum(axis=0)
    sq_b = np.square(B).sum(axis=0)
    cost = sq_a[:, None] + sq_b[None, :] - 2.0 * (A.T @ B)
    from scipy.optimize import linear_sum_assignment  # slow to import; deferred to its caller

    rows, cols = linear_sum_assignment(cost)
    # summed from the matched columns themselves: the expanded cost cancels,
    # and would leave a set some 1e-17 away from itself
    return float(np.square(A[:, rows] - B[:, cols]).sum())


def boundary_score(F: Factorization, L: Lmdp) -> np.ndarray:
    """Representation-change score g per interior state.

    g(s) = sum_i P_ii(i, s) ||w_i - w_s||^2 where w_s is the W column of the
    task anchored at s's boundary twin. Requires the factorization to come
    from the uniform identity task basis (one task per boundary state) and a
    domain whose boundary twins mirror the interior states.
    """
    W = np.asarray(F.W, dtype=float)
    if W.shape[1] != L.n_boundary:
        raise ValueError(
            f"W has {W.shape[1]} task columns but the domain has {L.n_boundary} "
            "boundary states; boundary scores need the uniform identity basis"
        )
    if L.n_boundary != L.n_interior:
        raise ValueError(
            f"domain has {L.n_interior} interior and {L.n_boundary} boundary "
            "states; boundary scores need one boundary twin per interior state"
        )
    P = L.dynamics.ii
    diffs = W[:, P.rows] - W[:, P.cols]
    contrib = P.vals * np.square(diffs).sum(axis=0)
    g = np.bincount(P.cols, weights=contrib, minlength=L.n_interior)
    g.setflags(write=False)
    return g


def purity_report(F: Factorization, labels) -> dict:
    """Purity plus cluster sizes and the cluster-by-label confusion matrix."""
    D = np.asarray(F.D, dtype=float)
    labels = np.asarray(labels)
    if labels.shape != (D.shape[0],):
        raise ValueError(
            f"need one label per interior state ({D.shape[0]}), got {labels.shape}"
        )
    # np.argmax already breaks ties toward the lowest index
    assign = np.argmax(_l1_columns(D), axis=1)
    uniq = np.unique(labels)
    index_of = {lab: i for i, lab in enumerate(uniq)}
    confusion = np.zeros((D.shape[1], uniq.size), dtype=int)
    for cluster, lab in zip(assign, labels):
        confusion[cluster, index_of[lab]] += 1
    majority = confusion.max(axis=1).sum()
    return {
        "purity": float(majority / D.shape[0]),
        "cluster_sizes": confusion.sum(axis=1).tolist(),
        "confusion": confusion.tolist(),
    }


def write_boundary_scores(path, g) -> None:
    """g-score CSV with header state,g."""
    from . import fileio

    g = np.asarray(g, dtype=float)
    lines = ["state,g"]
    lines.extend(f"{s},{repr(float(v))}" for s, v in enumerate(g))
    fileio.atomic_write_text(path, "\n".join(lines) + "\n")
