"""Finite-exit linearly-solvable MDPs: representation, exact solvers, optimal control.

Matrix convention used throughout the package: transition matrices are
column-stochastic with entry ``(to, from)``. Column ``s`` of the stacked
matrix ``[P_ii; P_bi]`` holds the outgoing passive distribution of interior
state ``s``; boundary states are absorbing and store no outgoing dynamics.

The desirability function ``z`` (exponentiated cost-to-go, ``z = exp(V/lam)``)
solves the fixed point

    z(s) = exp(r_i(s)/lam) * (sum_i P_ii[i, s] z(i) + sum_b P_bi[b, s] q_b(b))

which is linear in ``z`` and solved here by a direct sparse factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateNormalizerError, SingularSystemError

#: Tolerance on column sums of passive dynamics.
STOCHASTIC_TOL = 1e-12
#: Max-norm tolerance on the desirability fixed-point residual.
RESIDUAL_TOL = 1e-10

if TYPE_CHECKING:
    from scipy import sparse


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_csc(m, what: str) -> sparse.csc_array:
    from scipy import sparse  # slow to import; only LMDP commands need it

    try:
        out = sparse.csc_array(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: cannot interpret as a sparse matrix: {exc}") from exc
    if out.ndim != 2:
        raise ValueError(f"{what}: expected a 2-D matrix, got ndim={out.ndim}")
    out.data.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateSpace:
    """Partitioned state space: interior states first, then boundary states."""

    n_interior: int
    n_boundary: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    @property
    def n_total(self) -> int:
        return self.n_interior + self.n_boundary


@dataclass(frozen=True, eq=False)
class PassiveDynamics:
    """Column-stochastic passive dynamics split into interior and boundary rows.

    ``P_ii[i, s]`` is the probability of moving from interior state ``s`` to
    interior state ``i``; ``P_bi[b, s]`` the probability of exiting to
    boundary state ``b``.
    """

    P_ii: sparse.csc_array
    P_bi: sparse.csc_array

    def __post_init__(self):
        object.__setattr__(self, "P_ii", _as_csc(self.P_ii, "P_ii"))
        object.__setattr__(self, "P_bi", _as_csc(self.P_bi, "P_bi"))

    def stacked(self) -> sparse.csc_array:
        """Full (n_interior + n_boundary) x n_interior transition matrix."""
        from scipy import sparse

        return sparse.vstack([self.P_ii, self.P_bi], format="csc")


@dataclass(frozen=True, eq=False)
class Lmdp:
    """Finite-exit LMDP: state space, passive dynamics, interior rewards, temperature."""

    space: StateSpace
    dynamics: PassiveDynamics
    r_interior: np.ndarray
    lam: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "r_interior", _read_only(np.array(self.r_interior, dtype=float).reshape(-1))
        )
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def n_interior(self) -> int:
        return self.space.n_interior

    @property
    def n_boundary(self) -> int:
        return self.space.n_boundary

    def exp_rewards(self) -> np.ndarray:
        """Per-state factor exp(r_interior / lam)."""
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        return np.exp(self.r_interior / self.lam)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_lmdp(L: Lmdp, max_reported: int = 8) -> ValidationReport:
    """Collect every violated LMDP invariant; never raises.

    Column-stochasticity messages are capped at ``max_reported`` columns.
    """
    v: list[str] = []
    try:
        n_i, n_b = L.space.n_interior, L.space.n_boundary
        if n_i < 1:
            v.append(f"n_interior must be >= 1, got {n_i}")
        if n_b < 1:
            v.append(f"n_boundary must be >= 1, got {n_b}")
        labels = L.space.labels
        if labels is not None:
            if len(labels) != n_i + n_b:
                v.append(f"labels has length {len(labels)}, expected {n_i + n_b}")
            if len(set(labels)) != len(labels):
                v.append("labels are not unique")
        if not np.isfinite(L.lam) or L.lam <= 0:
            v.append("lambda must be positive")
        if L.r_interior.shape != (n_i,):
            v.append(f"r_interior has shape {L.r_interior.shape}, expected ({n_i},)")
        elif not np.all(np.isfinite(L.r_interior)):
            v.append("r_interior contains non-finite entries")

        P_ii, P_bi = L.dynamics.P_ii, L.dynamics.P_bi
        if P_ii.shape != (n_i, n_i):
            v.append(f"P_ii has shape {P_ii.shape}, expected ({n_i}, {n_i})")
        if P_bi.shape != (n_b, n_i):
            v.append(f"P_bi has shape {P_bi.shape}, expected ({n_b}, {n_i})")
        for name, m in (("P_ii", P_ii), ("P_bi", P_bi)):
            if m.nnz and m.data.size:
                if np.isnan(m.data).any():  # NaN slips past every comparison below
                    v.append(f"{name} has a NaN entry")
                lo, hi = m.data.min(), m.data.max()
                if lo < 0:
                    v.append(f"{name} has a negative entry ({lo:g})")
                if hi > 1:
                    v.append(f"{name} has an entry above 1 ({hi:g})")
        if P_ii.shape == (n_i, n_i) and P_bi.shape == (n_b, n_i):
            sums = np.asarray(P_ii.sum(axis=0)).reshape(-1) + np.asarray(
                P_bi.sum(axis=0)
            ).reshape(-1)
            bad = np.flatnonzero(np.abs(sums - 1.0) > STOCHASTIC_TOL)
            for j in bad[:max_reported]:
                v.append(f"column {j} sums to {sums[j]:g}")
            if bad.size > max_reported:
                v.append(f"... and {bad.size - max_reported} more non-stochastic columns")
    except Exception as exc:  # diagnostic collection must never throw
        v.append(f"validation aborted: {exc}")
    return ValidationReport(ok=not v, violations=tuple(v))


class _FiniteExitSystem:
    """Shared sparse factorization of (I - diag(g) P_ii^T) for one LMDP."""

    def __init__(self, L: Lmdp):
        self.L = L
        self.g = L.exp_rewards()
        n = L.n_interior
        if L.dynamics.P_ii.shape != (n, n):
            raise ValueError(
                f"P_ii has shape {L.dynamics.P_ii.shape}, expected ({n}, {n})"
            )
        from scipy import sparse
        from scipy.sparse.linalg import splu  # slow to import; deferred to its caller

        self.M = L.dynamics.P_ii.T.multiply(self.g[:, None]).tocsc()
        A = (sparse.identity(n, format="csc") - self.M).tocsc()

        try:
            self.lu = splu(A)
        except RuntimeError as exc:
            raise SingularSystemError(
                "desirability system is singular "
                f"(estimated spectral radius {self._spectral_radius():.6g}); "
                "check that every interior state can reach a boundary state"
            ) from exc

    def _spectral_radius(self, iters: int = 200) -> float:
        v = np.full(self.L.n_interior, 1.0 / max(self.L.n_interior, 1))
        rho = 0.0
        for _ in range(iters):
            w = self.M @ v
            norm = np.linalg.norm(w, np.inf)
            if norm == 0 or not np.isfinite(norm):
                return norm
            rho, v = norm, w / norm
        return rho

    def rhs(self, q_b: np.ndarray) -> np.ndarray:
        entering = self.L.dynamics.P_bi.T @ q_b
        if entering.ndim == 2:
            return self.g[:, None] * entering
        return self.g * entering

    def solve(self, q_b: np.ndarray) -> np.ndarray:
        """Solve for a boundary-reward vector, or one column per task; validates."""
        z = self.lu.solve(self.rhs(q_b))
        self.check(z, q_b)
        return z

    def check(self, z: np.ndarray, q_b: np.ndarray) -> None:
        """Raise unless z is positive and solves the fixed point for q_b.

        With one column per task in z and q_b, each column is held to its own
        tolerance and the error names the first failing one, "task t: ...".
        """
        Z, Q = z.reshape(len(z), -1), q_b.reshape(len(q_b), -1)
        res = Z - self.g[:, None] * (self.L.dynamics.P_ii.T @ Z + self.L.dynamics.P_bi.T @ Q)
        res = np.abs(res).max(axis=0, initial=0.0)
        tol = np.maximum(RESIDUAL_TOL, RESIDUAL_TOL * np.abs(Z).max(axis=0, initial=0.0))
        bad_sign = ~np.isfinite(Z).all(axis=0) | (Z <= 0).any(axis=0)
        failing = np.flatnonzero(bad_sign | (res > tol))
        if not failing.size:
            return
        t = failing[0]
        if bad_sign[t]:
            msg = ("solver produced a non-positive desirability "
                   f"(estimated spectral radius {self._spectral_radius():.6g}); "
                   "the weighted interior dynamics are not contractive")
        else:
            msg = (f"fixed-point residual {res[t]:g} exceeds tolerance; system is "
                   f"ill-conditioned (estimated spectral radius {self._spectral_radius():.6g})")
        raise SingularSystemError(f"task {t}: {msg}" if z.ndim == 2 else msg)


def _check_q_b(L: Lmdp, q_b) -> np.ndarray:
    q = np.asarray(q_b, dtype=float).reshape(-1)
    if q.shape != (L.n_boundary,):
        raise ValueError(f"q_b has {q.size} entries, expected {L.n_boundary}")
    if not np.all(np.isfinite(q)) or np.any(q <= 0):
        raise ValueError("q_b entries must be strictly positive and finite")
    return q


def solve_finite_exit(L: Lmdp, q_b) -> np.ndarray:
    """Desirability vector over interior states for boundary rewards ``q_b``.

    ``q_b`` holds exponentiated boundary rewards (strictly positive). The
    result satisfies the desirability fixed point with max-norm residual at
    most ``RESIDUAL_TOL`` (relative for large solutions).

    Raises ``SingularSystemError`` when the reward-weighted interior dynamics
    are not contractive, ``ValueError`` on non-positive ``q_b``.
    """
    q = _check_q_b(L, q_b)
    return _FiniteExitSystem(L).solve(q)


def solve_iterative(L: Lmdp, q_b, tol: float = 1e-12, max_iter: int = 10_000) -> np.ndarray:
    """Fixed-point iteration oracle for :func:`solve_finite_exit`.

    Repeats ``z <- g * (P_ii^T z + P_bi^T q_b)`` from ``z = 1`` until the
    max-norm change drops below ``tol``. Kept as an independent cross-check;
    the direct solver is the production path.
    """
    q = _check_q_b(L, q_b)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    g = L.exp_rewards()
    P_ii_T = L.dynamics.P_ii.T.tocsr()
    c = L.dynamics.P_bi.T @ q
    z = np.ones(L.n_interior)
    for _ in range(max_iter):
        z_new = g * (P_ii_T @ z + c)
        delta = np.max(np.abs(z_new - z)) if z.size else 0.0
        z = z_new
        if delta < tol:
            return z
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={tol:g} after {max_iter} iterations"
    )


def value_from_desirability(z, lam: float) -> np.ndarray:
    """Cost-to-go values V = lam * log z, elementwise."""
    z = np.asarray(z, dtype=float)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise ValueError("desirability entries must be strictly positive and finite")
    return lam * np.log(z)


def optimal_policy(L: Lmdp, z, q_b) -> sparse.csc_array:
    """Optimal controlled transitions: a*(x'|s) ~ P(x'|s) * z~(x').

    ``z~`` extends ``z`` with ``q_b`` on boundary states. Returns a sparse
    (n_interior + n_boundary) x n_interior matrix whose columns are
    probability distributions with the same support as the passive dynamics.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    q = np.asarray(q_b, dtype=float).reshape(-1)
    if z.shape != (L.n_interior,):
        raise ValueError(f"z has {z.size} entries, expected {L.n_interior}")
    if q.shape != (L.n_boundary,):
        raise ValueError(f"q_b has {q.size} entries, expected {L.n_boundary}")
    z_tilde = np.concatenate([z, q])
    weighted = L.dynamics.stacked().multiply(z_tilde[:, None]).tocsc()
    norms = np.asarray(weighted.sum(axis=0)).reshape(-1)
    dead = np.flatnonzero(norms == 0)
    if dead.size:
        raise DegenerateNormalizerError(
            f"zero normalizer for state(s) {dead[:8].tolist()}; "
            "passive successors all have zero desirability"
        )
    out = weighted.multiply(1.0 / norms[None, :]).tocsc()
    out.data.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# JSON serialization
#
# {"n_interior": .., "n_boundary": .., "labels": [..]?, "lambda": ..,
#  "r_interior": [..], "P_ii": {"triplets": [[row, col, val], ..]},
#  "P_bi": {"triplets": ..}}  with triplets sorted by (col, row).
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    """A JSON integer; JSON true and false are not counts."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _is_number_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


def _triplets(m: sparse.csc_array) -> list[list]:
    coo = m.tocoo()
    order = np.lexsort((coo.row, coo.col))
    return [
        [int(coo.row[i]), int(coo.col[i]), float(coo.data[i])] for i in order
    ]


def _from_triplets(obj, shape: tuple[int, int], what: str) -> sparse.csc_array:
    if not isinstance(obj, dict) or "triplets" not in obj:
        raise ValueError(f"{what} must be an object with a 'triplets' field")
    trips = obj["triplets"]
    if not isinstance(trips, list) or not all(
        isinstance(t, list) and len(t) == 3 and _is_int(t[0]) and _is_int(t[1])
        and _is_number(t[2]) for t in trips
    ):
        raise ValueError(f"{what}: every triplet must be [row, col, value] with "
                         "integer row and col")
    rows = [t[0] for t in trips]
    cols = [t[1] for t in trips]
    vals = [float(t[2]) for t in trips]
    if any(not (0 <= r < shape[0]) for r in rows) or any(
        not (0 <= c < shape[1]) for c in cols
    ):
        raise ValueError(f"{what}: triplet index out of range for shape {shape}")
    from scipy import sparse

    return sparse.coo_array((vals, (rows, cols)), shape=shape).tocsc()


def lmdp_to_json_dict(L: Lmdp) -> dict:
    out: dict = {
        "n_interior": L.n_interior,
        "n_boundary": L.n_boundary,
    }
    if L.space.labels is not None:
        out["labels"] = list(L.space.labels)
    out["lambda"] = L.lam
    out["r_interior"] = [float(x) for x in L.r_interior]
    out["P_ii"] = {"triplets": _triplets(L.dynamics.P_ii)}
    out["P_bi"] = {"triplets": _triplets(L.dynamics.P_bi)}
    return out


def _json_field(d: dict, key: str, accepts, kind: str):
    if not accepts(d[key]):
        raise ValueError(f"LMDP JSON field '{key}' must be {kind}, got {d[key]!r:.40}")
    return d[key]


def lmdp_from_json_dict(d: dict) -> Lmdp:
    for key in ("n_interior", "n_boundary", "lambda", "r_interior", "P_ii", "P_bi"):
        if key not in d:
            raise ValueError(f"LMDP JSON is missing field '{key}'")
    n_i = _json_field(d, "n_interior", _is_int, "an integer")
    n_b = _json_field(d, "n_boundary", _is_int, "an integer")
    labels = d.get("labels")
    if labels is not None:
        labels = tuple(_json_field(d, "labels", _is_str_list, "a list of strings"))
    r = _json_field(d, "r_interior", _is_number_list, "a list of numbers")
    # checked before the dynamics are built: their size follows n_interior,
    # which a short file could otherwise set to billions
    if len(r) != n_i:
        raise ValueError(f"LMDP JSON: r_interior has shape ({len(r)},), expected ({n_i},)")
    dyn = PassiveDynamics(
        P_ii=_from_triplets(d["P_ii"], (n_i, n_i), "P_ii"),
        P_bi=_from_triplets(d["P_bi"], (n_b, n_i), "P_bi"),
    )
    return Lmdp(
        space=StateSpace(n_i, n_b, labels),
        dynamics=dyn,
        r_interior=r,
        lam=_json_field(d, "lambda", _is_number, "a number"),
    )


def save_lmdp(path, L: Lmdp) -> None:
    from . import fileio

    fileio.atomic_write_json(path, lmdp_to_json_dict(L))


def load_lmdp(path) -> Lmdp:
    """Read and validate an LMDP JSON file; invalid content raises ValueError."""
    from . import fileio

    obj = fileio.read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: LMDP JSON must be an object")
    L = lmdp_from_json_dict(obj)
    report = validate_lmdp(L)
    if not report.ok:
        raise ValueError(f"{path}: invalid LMDP: {'; '.join(report.violations)}")
    return L
