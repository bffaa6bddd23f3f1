"""Stacked decompositions: subtask-augmented dynamics and derived higher layers.

A discovered factorization turns into k additional absorbing "subtask"
states: entering one hands control to the next layer up. The augmented
passive dynamics keep columns stochastic by scaling the original rows down
by each column's subtask mass. The next layer's LMDP treats subtask and
boundary states as absorbing and measures where walks started from each
subtask's footprint get absorbed, which becomes the higher-layer transition
law over subtasks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import AlphaRangeError, SingularSystemError, SubtaskForgeError
from .factorize import (
    Factorization,
    NmfOptions,
    nmf,
    write_factorization_files,
)
from .lmdp_core import Lmdp, PassiveDynamics, StateSpace, _lu_of_i_minus, save_lmdp
from .multitask import solve_task_basis
from . import fileio

#: Column sums of derived higher-layer dynamics must be this close to 1
#: before exact renormalization.
ABSORPTION_TOL = 1e-10


def normalized_columns(D) -> np.ndarray:
    """L1-normalize columns; every column must carry positive mass."""
    D = np.asarray(D, dtype=float)
    mass = D.sum(axis=0)
    if np.any(mass <= 0):
        raise ValueError("every subtask column needs positive mass")
    return D / mass[None, :]


@dataclass(frozen=True, eq=False)
class SubtaskLayer:
    """One level of the stack: base LMDP plus subtask-augmented dynamics.

    ``scaled`` holds the base dynamics with each column scaled down by its
    subtask mass; ``scaled.ii`` and ``scaled.bi`` are its ``Triplets``.
    """

    level: int
    base: Lmdp
    factorization: Factorization
    alpha: float
    d_hat: np.ndarray
    P_t: np.ndarray
    scaled: PassiveDynamics

    @property
    def k(self) -> int:
        return self.P_t.shape[0]


def augment_with_subtasks(L: Lmdp, F: Factorization, alpha: float) -> SubtaskLayer:
    """Attach k subtask states entered with probability alpha * d_hat_t(s).

    The original interior and boundary rows of each column are rescaled by
    one minus the column's total subtask mass, so augmented columns stay
    stochastic. ``alpha`` may be 0 (no-op augmentation) but must stay below
    the reported maximum.
    """
    if F.D.shape[0] != L.n_interior:
        raise ValueError(
            f"factorization has {F.D.shape[0]} rows but the domain has "
            f"{L.n_interior} interior states"
        )
    d_hat = normalized_columns(F.D)
    mass = d_hat.sum(axis=1)  # each base column's subtask mass per unit alpha
    alpha = float(alpha)
    alpha_max = float(1.0 / mass.max())
    if not 0.0 <= alpha < alpha_max:
        raise AlphaRangeError(
            f"alpha={alpha:g} outside [0, {alpha_max:g}) for this factorization",
            alpha_max=alpha_max,
        )
    scale = 1.0 - alpha * mass
    P_t = alpha * d_hat.T
    scaled = PassiveDynamics(L.dynamics.ii.scale_columns(scale),
                             L.dynamics.bi.scale_columns(scale))
    P_t.setflags(write=False)
    return SubtaskLayer(
        level=0, base=L, factorization=F, alpha=alpha, d_hat=d_hat, P_t=P_t,
        scaled=scaled,
    )


def derive_higher_layer(layer: SubtaskLayer) -> Lmdp:
    """Build the next level's LMDP from absorption statistics of this one.

    Under the augmented dynamics, subtask and boundary states absorb. A walk
    started from subtask t's footprint d_hat_t is absorbed somewhere with
    probability one; the absorption distribution over the k subtask states
    becomes interior column t of the next level, and over boundary states its
    exit column. Interior rewards are footprint-weighted averages of the
    base rewards; the temperature carries over unchanged.
    """
    if not layer.alpha > 0:
        raise ValueError("deriving a higher layer needs alpha > 0")
    n, k = layer.base.n_interior, layer.k
    n_b = layer.base.n_boundary
    solve = _lu_of_i_minus(layer.scaled.ii, lambda: (
        "absorption system is singular; augmented dynamics leak probability"))
    hit = solve(np.hstack([layer.P_t.T, layer.scaled.bi.toarray().T]))
    P_next = hit.T @ layer.d_hat
    sums = P_next.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > ABSORPTION_TOL) or not np.all(np.isfinite(P_next)):
        worst = float(np.abs(sums - 1.0).max())
        raise SingularSystemError(
            f"absorption probabilities sum to 1 +/- {worst:g}, beyond tolerance "
            f"{ABSORPTION_TOL:g}; augmented dynamics are malformed"
        )
    P_next = np.maximum(P_next, 0.0) / P_next.sum(axis=0, keepdims=True)

    base_labels = layer.base.space.labels
    labels = None
    if base_labels is not None:
        labels = tuple(f"subtask({t})" for t in range(k)) + base_labels[n:]
    return Lmdp(
        space=StateSpace(k, n_b, labels),
        dynamics=PassiveDynamics(P_next[:k, :], P_next[k:, :]),
        r_interior=layer.d_hat.T @ layer.base.r_interior,
        lam=layer.base.lam,
    )


@dataclass(frozen=True, eq=False)
class HierarchicalMlmdp:
    layers: tuple[SubtaskLayer, ...]
    top: Lmdp
    k_schedule: tuple[int, ...]
    alpha_schedule: tuple[float, ...]
    beta: float
    seed: int

    @property
    def depth(self) -> int:
        return len(self.layers)


def _annotate(exc: Exception, level: int) -> Exception:
    msg = f"level {level}: {exc}"
    if isinstance(exc, AlphaRangeError):
        return AlphaRangeError(msg, alpha_max=exc.alpha_max)
    return type(exc)(msg)


def build_hierarchy(L: Lmdp, k_schedule, alpha_schedule, beta: float = 1.0,
                    opts: NmfOptions | None = None) -> HierarchicalMlmdp:
    """Repeat solve-factorize-augment-derive down the schedules.

    Level l factorizes the uniform task ensemble of the current LMDP at rank
    ``k_schedule[l]``, augments with ``alpha_schedule[l]``, and derives the
    next LMDP. All levels share the options seed; the per-restart streams
    already separate by rank, and each level factorizes a different basis.
    """
    opts = opts or NmfOptions()
    k_schedule = tuple(int(k) for k in k_schedule)
    alpha_schedule = tuple(float(a) for a in alpha_schedule)
    if len(k_schedule) != len(alpha_schedule) or not k_schedule:
        raise ValueError(
            f"schedules must have equal nonzero length, got {len(k_schedule)} "
            f"ranks and {len(alpha_schedule)} alphas"
        )
    if any(a <= 0 for a in alpha_schedule):
        raise ValueError("every alpha in the schedule must be positive")

    layers: list[SubtaskLayer] = []
    current = L
    for level, (k, alpha) in enumerate(zip(k_schedule, alpha_schedule)):
        try:
            Z = solve_task_basis(current)
            F = nmf(Z, k, beta, opts)
            layer = replace(augment_with_subtasks(current, F, alpha), level=level)
            layers.append(layer)
            current = derive_higher_layer(layer)
        except (SubtaskForgeError, ValueError) as exc:
            raise _annotate(exc, level) from exc
    return HierarchicalMlmdp(
        layers=tuple(layers), top=current, k_schedule=k_schedule,
        alpha_schedule=alpha_schedule, beta=float(beta), seed=opts.seed,
    )


def write_hierarchy_files(dir_path, H: HierarchicalMlmdp) -> None:
    for layer in H.layers:
        level_dir = os.path.join(dir_path, f"level_{layer.level}")
        os.makedirs(level_dir, exist_ok=True)
        save_lmdp(os.path.join(level_dir, "lmdp.json"), layer.base)
        write_factorization_files(level_dir, layer.factorization)
    save_lmdp(os.path.join(dir_path, "top.json"), H.top)
    fileio.atomic_write_json(os.path.join(dir_path, "hierarchy.json"), {
        "levels": H.depth,
        "k_schedule": list(H.k_schedule),
        "alpha_schedule": list(H.alpha_schedule),
        "beta": H.beta,
        "seed": H.seed,
        "level_dirs": [f"level_{layer.level}" for layer in H.layers],
        "top": "top.json",
    })
