"""Finite-exit linearly-solvable MDPs: representation, validation, exact solvers.

An LMDP is one flat record, :class:`Lmdp`: ``n_interior`` interior states
followed by ``n_boundary`` absorbing boundary states, the passive dynamics
``P_ii`` and ``P_bi``, the interior rewards ``r_interior``, the temperature
``lam`` and optional state ``labels``.

Matrix convention used throughout the package: transition matrices are
column-stochastic with entry ``(to, from)``. Column ``s`` of the stacked
matrix ``[P_ii; P_bi]`` holds the outgoing passive distribution of interior
state ``s``; boundary states are absorbing and store no outgoing dynamics.

The desirability function ``z`` (exponentiated cost-to-go, ``z = exp(V/lam)``)
solves the fixed point

    z(s) = exp(r_i(s)/lam) * (sum_i P_ii[i, s] z(i) + sum_b P_bi[b, s] q_b(b))

which is linear in ``z`` and solved here directly: by a dense inverse from
numpy up to ``DENSE_MAX_STATES`` interior states, by scipy's sparse LU above.
The dynamics are held only as numpy coordinate arrays (:class:`Triplets`):
a scipy matrix exists only inside :func:`_lu_of_i_minus` for the sparse LU,
so at the paper's sizes an LMDP is built, read, written, validated and
solved without importing scipy.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError

#: Tolerance on column sums of passive dynamics.
STOCHASTIC_TOL = 1e-12
#: Max-norm tolerance on the desirability fixed-point residual.
RESIDUAL_TOL = 1e-10
#: Most non-stochastic columns a validation report names one by one.
MAX_REPORTED = 8
#: Entries in one block of columns of a multi-column solve (40 columns at
#: 1600 interior states): its scratch arrays are a few blocks in size.
SOLVE_BLOCK_ENTRIES = 2 ** 16
#: Most interior states whose system is inverted dense by numpy; a larger one
#: is factored by scipy's sparse LU. The two paths tie at 900 states in a
#: ladder of ``solve`` runs on rooms bases (CHANGES.md); above it the dense
#: path holds more memory, and at 1600 it also takes longer.
DENSE_MAX_STATES = 900


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Triplets:
    """A sparse matrix as read-only coordinate arrays in CSC order: sorted by
    column, then row, with no (row, col) pair twice."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def canonical(cls, shape, rows, cols, vals) -> Triplets:
        """Sort the entries into CSC order and sum each (row, col) pair's
        duplicates in input order. scipy's ``sum_duplicates`` adds them in
        another order, so its sums can differ from these in the last bits."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], np.asarray(vals, dtype=float)[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if not first.all():
            vals = np.bincount(np.cumsum(first) - 1, weights=vals)
            rows, cols = rows[first], cols[first]
        return cls(tuple(int(x) for x in shape), _read_only(rows), _read_only(cols),
                   _read_only(vals))

    @classmethod
    def of(cls, m, what: str) -> Triplets:
        """From Triplets or a numeric 2-D array; the zeros of the array are
        dropped. Anything else raises ValueError naming ``what``."""
        if isinstance(m, Triplets):
            return m
        try:
            a = np.asarray(m, dtype=float)
        except (TypeError, ValueError):
            a = None
        if a is None or a.ndim != 2:
            got = type(m).__name__ if a is None else f"a {a.ndim}-D array"
            raise ValueError(f"{what}: expected Triplets or a numeric 2-D array, got {got}")
        cols, rows = np.nonzero(a.T)
        return cls.canonical(a.shape, rows, cols, a[rows, cols])

    def scale_columns(self, scale: np.ndarray) -> Triplets:
        """Column c multiplied by ``scale[c]``; explicit zeros stay stored."""
        return Triplets(self.shape, self.rows, self.cols,
                        _read_only(self.vals * scale[self.cols]))

    @functools.cached_property
    def _passes(self) -> list[np.ndarray]:
        """Entry indices grouped by their place in their column: a pass holds
        at most one entry of each column."""
        first = np.flatnonzero(np.diff(self.cols, prepend=-1))
        place = np.arange(self.cols.size) - np.repeat(
            first, np.diff(first, append=self.cols.size))
        return [np.flatnonzero(place == p) for p in range(place.max(initial=-1) + 1)]

    def t_dot(self, X: np.ndarray) -> np.ndarray:
        """``P^T @ X`` for a vector or a matrix X with ``shape[0]`` rows,
        summed in scipy's order: each column's entries top to bottom."""
        out = np.zeros((self.shape[1],) + X.shape[1:])
        for p, k in enumerate(self._passes):
            terms = X[self.rows[k]]
            terms *= self.vals[k].reshape((-1,) + (1,) * (X.ndim - 1))
            if p:
                out[self.cols[k]] += terms
            else:  # out is still 0 there
                out[self.cols[k]] = terms
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


@dataclass(frozen=True, eq=False)
class Lmdp:
    """Finite-exit LMDP: interior states first, then boundary states.

    ``P_ii[i, s]`` is the probability of moving from interior state ``s`` to
    interior state ``i``; ``P_bi[b, s]`` the probability of exiting to
    boundary state ``b``. Each is given as :class:`Triplets` or a numeric
    2-D array and held as :class:`Triplets`. ``r_interior`` holds one reward
    per interior state, ``lam`` the temperature and ``labels`` None or one
    name per state, interior then boundary.
    """

    n_interior: int
    n_boundary: int
    P_ii: Triplets
    P_bi: Triplets
    r_interior: np.ndarray
    lam: float = 1.0
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("P_ii", "P_bi"):
            object.__setattr__(self, name, Triplets.of(getattr(self, name), name))
        object.__setattr__(
            self, "r_interior", _read_only(np.array(self.r_interior, dtype=float).reshape(-1))
        )
        object.__setattr__(self, "lam", float(self.lam))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    def exp_rewards(self) -> np.ndarray:
        """Per-state factor exp(r_interior / lam)."""
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        return np.exp(self.r_interior / self.lam)


def validate_lmdp(L: Lmdp) -> tuple[str, ...]:
    """Every violated LMDP invariant, empty when L is valid; never raises.

    Column-stochasticity messages are capped at ``MAX_REPORTED`` columns.
    """
    v: list[str] = []
    try:
        n_i, n_b = L.n_interior, L.n_boundary
        if n_i < 1:
            v.append(f"n_interior must be >= 1, got {n_i}")
        if n_b < 1:
            v.append(f"n_boundary must be >= 1, got {n_b}")
        labels = L.labels
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

        P_ii, P_bi = L.P_ii, L.P_bi
        if P_ii.shape != (n_i, n_i):
            v.append(f"P_ii has shape {P_ii.shape}, expected ({n_i}, {n_i})")
        if P_bi.shape != (n_b, n_i):
            v.append(f"P_bi has shape {P_bi.shape}, expected ({n_b}, {n_i})")
        for name, m in (("P_ii", P_ii), ("P_bi", P_bi)):
            if m.vals.size:
                if np.isnan(m.vals).any():  # NaN slips past every comparison below
                    v.append(f"{name} has a NaN entry")
                lo, hi = m.vals.min(), m.vals.max()
                if lo < 0:
                    v.append(f"{name} has a negative entry ({lo:g})")
                if hi > 1:
                    v.append(f"{name} has an entry above 1 ({hi:g})")
        if P_ii.shape == (n_i, n_i) and P_bi.shape == (n_b, n_i):
            sums = sum(np.bincount(m.cols, weights=m.vals, minlength=n_i) for m in (P_ii, P_bi))
            bad = np.flatnonzero(np.abs(sums - 1.0) > STOCHASTIC_TOL)
            for j in bad[:MAX_REPORTED]:
                v.append(f"column {j} sums to {sums[j]:g}")
            if bad.size > MAX_REPORTED:
                v.append(f"... and {bad.size - MAX_REPORTED} more non-stochastic columns")
    except Exception as exc:  # diagnostic collection must never throw
        v.append(f"validation aborted: {exc}")
    return tuple(v)


def _lu_of_i_minus(P: Triplets, singular, g: np.ndarray | None = None):
    """A function that solves ``A x = b`` for one or more columns b, where
    ``A = I - T`` for ``T = diag(g) P^T`` (g None: ``P^T``), P square.

    Up to ``DENSE_MAX_STATES`` states A is a dense array, inverted once by
    numpy's LU, and a solve multiplies each column by the inverse, both at
    one BLAS thread (:func:`fileio.one_blas_thread`): OpenBLAS's LU, and its
    products at 900 states, round by the thread count, so Z would hang on
    the CPU count. Above, A is a scipy CSC matrix factored once by
    ``splu``. Either way A exists only while it is factored: the function
    holds the inverse or the LU factors. A singular system raises
    SingularSystemError with the message ``singular()``, built only then.
    """
    n = P.shape[0]
    t = P.vals if g is None else g[P.cols] * P.vals
    if n <= DENSE_MAX_STATES:
        from . import fileio

        A = np.eye(n)
        A[P.cols, P.rows] -= t
        try:
            with fileio.one_blas_thread():
                inverse = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(singular()) from exc

        def solve(b):
            # one product per column: the edge tiles of a matrix product round
            # differently, and a task's bits must not hang on its place in b
            with fileio.one_blas_thread():
                return np.matmul(inverse, b.T[..., None])[..., 0].T

        return solve
    from scipy import sparse
    from scipy.sparse.linalg import splu  # slow to import; deferred to its caller

    A = (sparse.identity(n, format="csc")
         - sparse.csc_array((t, (P.cols, P.rows)), shape=(n, n))).tocsc()
    try:
        return splu(A).solve
    except RuntimeError as exc:
        raise SingularSystemError(singular()) from exc


class _FiniteExitSystem:
    """Shared LU factorization of A = I - diag(g) P_ii^T for one LMDP."""

    def __init__(self, L: Lmdp):
        self.L = L
        self.g = L.exp_rewards()
        n = L.n_interior
        if L.P_ii.shape != (n, n):
            raise ValueError(
                f"P_ii has shape {L.P_ii.shape}, expected ({n}, {n})"
            )
        self.lu_solve = _lu_of_i_minus(L.P_ii, lambda: (
            "desirability system is singular "
            f"(estimated spectral radius {self._spectral_radius():.6g}); "
            "check that every interior state can reach a boundary state"), self.g)

    def _spectral_radius(self) -> float:
        v = np.full(self.L.n_interior, 1.0 / max(self.L.n_interior, 1))
        rho = 0.0
        for _ in range(200):
            w = self.g * self.L.P_ii.t_dot(v)
            norm = np.linalg.norm(w, np.inf)
            if norm == 0 or not np.isfinite(norm):
                return norm
            rho, v = norm, w / norm
        return rho

    def solve(self, q_b: np.ndarray | None, q_floor: float = 0.0, out=None):
        """Solve for one column of boundary rewards per task; validates.

        The tasks are solved a block of columns at a time: each block is
        floored at ``q_floor``, solved, checked and stored as
        ``out[:, first:stop]``, first to last, so the solve holds ``q_b``, the
        LU factors and a few arrays of ``SOLVE_BLOCK_ENTRIES`` entries besides
        ``out``. ``out`` None is a fresh C-ordered array; ``out`` is returned.
        ``q_b`` None is the uniform task basis, the n_boundary identity, whose
        floored blocks are built here: ``q_floor`` everywhere and 1 on each
        task's goal.
        """
        n, n_tasks = self.L.n_interior, self.L.n_boundary if q_b is None else q_b.shape[1]
        if out is None:
            out = np.empty((n, n_tasks))
        elif tuple(out.shape) != (n, n_tasks):
            raise ValueError(f"out has shape {tuple(out.shape)}, expected {(n, n_tasks)}")
        width = max(1, SOLVE_BLOCK_ENTRIES // max(n, 1))
        for first in range(0, n_tasks, width):
            stop = min(first + width, n_tasks)
            if q_b is None:
                Q = np.full((self.L.n_boundary, stop - first), q_floor)
                np.fill_diagonal(Q[first:stop], 1.0)
            else:
                Q = np.maximum(q_b[:, first:stop], q_floor)
            out[:, first:stop] = self._solve_block(Q, first)
        return out

    def _solve_block(self, Q: np.ndarray, first: int) -> np.ndarray:
        """The checked solution for the floored task columns Q."""
        b = self.L.P_bi.t_dot(Q)
        b *= self.g[:, None]
        z = self.lu_solve(b)
        self.check(z, b, first)
        return z

    def check(self, Z: np.ndarray, b: np.ndarray, first: int = 0) -> None:
        """Raise unless Z is positive and solves the fixed point for the
        right-hand side ``b = diag(g) P_bi^T Q``: its residual is ``A Z - b``,
        with ``A Z = Z - diag(g) P_ii^T Z`` taken from the triplets.

        Z and b hold one column per task. Each column is held to its own
        tolerance and the error names the first failing one, "task t: ...",
        counting tasks from ``first``.
        """
        res = Z - self.g[:, None] * self.L.P_ii.t_dot(Z)
        res -= b
        res = np.abs(res, out=res).max(axis=0, initial=0.0)
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
        raise SingularSystemError(f"task {first + t}: {msg}")


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
    """A JSON number that a float holds: not true or false, nor an integer
    past the float range. A float passes even if NaN or infinite."""
    return isinstance(v, float) or _is_int(v) and abs(v) <= sys.float_info.max


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _is_number_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


def _triplets(m: Triplets) -> list[list]:
    return [list(t) for t in zip(m.rows.tolist(), m.cols.tolist(), m.vals.tolist())]


def _from_triplets(obj, shape: tuple[int, int], what: str) -> Triplets:
    if not isinstance(obj, dict) or "triplets" not in obj:
        raise ValueError(f"{what} must be an object with a 'triplets' field")
    trips = obj["triplets"]
    if not isinstance(trips, list) or not all(
        isinstance(t, list) and len(t) == 3 and _is_int(t[0]) and _is_int(t[1])
        and _is_number(t[2]) for t in trips
    ):
        raise ValueError(f"{what}: every triplet must be [row, col, value] with "
                         "integer row and col and a number value")
    rows = [t[0] for t in trips]
    cols = [t[1] for t in trips]
    if any(not (0 <= r < shape[0]) for r in rows) or any(
        not (0 <= c < shape[1]) for c in cols
    ):
        raise ValueError(f"{what}: triplet index out of range for shape {shape}")
    return Triplets.canonical(shape, rows, cols, [float(t[2]) for t in trips])


def lmdp_to_json_dict(L: Lmdp) -> dict:
    out: dict = {
        "n_interior": L.n_interior,
        "n_boundary": L.n_boundary,
    }
    if L.labels is not None:
        out["labels"] = list(L.labels)
    out["lambda"] = L.lam
    out["r_interior"] = [float(x) for x in L.r_interior]
    out["P_ii"] = {"triplets": _triplets(L.P_ii)}
    out["P_bi"] = {"triplets": _triplets(L.P_bi)}
    return out


def _json_field(d: dict, key: str, accepts, kind: str, where: str = "LMDP JSON"):
    if not accepts(d[key]):
        raise ValueError(f"{where} field '{key}' must be {kind}, got {d[key]!r:.40}")
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
    return Lmdp(
        n_i, n_b,
        P_ii=_from_triplets(d["P_ii"], (n_i, n_i), "P_ii"),
        P_bi=_from_triplets(d["P_bi"], (n_b, n_i), "P_bi"),
        r_interior=r,
        lam=_json_field(d, "lambda", _is_number, "a number"),
        labels=labels,
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
    violations = validate_lmdp(L)
    if violations:
        raise ValueError(f"{path}: invalid LMDP: {'; '.join(violations)}")
    return L
