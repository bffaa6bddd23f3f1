"""Benchmark gridworld domains expressed as finite-exit LMDPs.

Every generator follows the same recipe: take the uniform random walk on a
domain graph, then attach one absorbing boundary "twin" to each interior
state, reachable in a single step. Twins mirror the interior set, so a goal
task can be anchored at any cell and boundary index i twins interior index i.

State orderings are deterministic: rooms and taxi enumerate cells in
row-major order, taxi groups states into passenger-location blocks with the
in-taxi block last.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .lmdp_core import (
    Lmdp,
    Triplets,
    _is_int,
    _is_number,
    _json_field,
)

DEFAULT_R_STEP = -1.0
DEFAULT_LAMBDA = 1.0

PASSENGER_NAMES = ("A", "B", "C", "D")
IN_TAXI_NAME = "*"

#: Classic three two-cell vertical wall segments of the 5x5 taxi grid.
DEFAULT_TAXI_WALLS = (
    ((0, 1), (0, 2)),
    ((1, 1), (1, 2)),
    ((3, 0), (3, 1)),
    ((4, 0), (4, 1)),
    ((3, 2), (3, 3)),
    ((4, 2), (4, 3)),
)
DEFAULT_TAXI_DEPOTS = ((0, 0), (0, 4), (4, 0), (4, 4))


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


#: Most interior states a spec may describe. The dense task basis has one
#: float64 per pair of states, so 2**14 states already take 2 GB.
MAX_STATES = 2 ** 14


def _check_states(kind: str, n_states: int) -> None:
    """Reject a spec with more than MAX_STATES interior states, before anything
    of that size is allocated."""
    if n_states > MAX_STATES:
        raise ValueError(
            f"{kind} spec: {n_states} interior states exceed the limit of {MAX_STATES}"
        )


def _is_list_of(accepts):
    return lambda v: isinstance(v, (list, tuple)) and all(map(accepts, v))


def _is_pair_of(accepts):
    return lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(accepts, v))


#: What a spec field of each kind accepts: a predicate and its description.
#: A count is a JSON integer, so a float, a string or a bool is refused.
_INT = (_is_int, "an integer")
_CELLS = (_is_list_of(_is_pair_of(_is_int)), "a list of [row, col] integer pairs")
_WALLS = (_is_list_of(_is_pair_of(_is_pair_of(_is_int))),
          "a list of pairs of [row, col] integer pairs")


def _check_fields(spec, kind: str, **checks) -> None:
    """Raise ValueError naming the first field of ``spec`` its check refuses."""
    for name, (accepts, what) in checks.items():
        _json_field(vars(spec), name, accepts, what, f"{kind} spec:")


@dataclass(frozen=True)
class RoomsSpec:
    """Grid of square rooms joined by single mid-wall doorway edges.

    ``layout`` is either "grid" (every adjacent room pair gets a doorway) or
    "snake" (doorways only along the boustrophedon room path).
    """

    room_rows: int
    room_cols: int
    room_size: int
    layout: str = "grid"

    def __post_init__(self):
        _check_fields(self, "rooms", room_rows=_INT, room_cols=_INT, room_size=_INT)
        if self.room_rows < 1 or self.room_cols < 1:
            raise ValueError(
                f"rooms spec: room_rows and room_cols must be >= 1, "
                f"got {self.room_rows} and {self.room_cols}"
            )
        if self.room_size < 2:
            raise ValueError(f"rooms spec: room_size must be >= 2, got {self.room_size}")
        _check_states("rooms", self.n_cells)
        if self.layout not in ("grid", "snake"):
            raise ValueError(
                f"rooms spec: layout must be 'grid' or 'snake', got {self.layout!r}"
            )

    @property
    def rows(self) -> int:
        return self.room_rows * self.room_size

    @property
    def cols(self) -> int:
        return self.room_cols * self.room_size

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class TaxiSpec:
    """Taxi world on a square grid with four depots and optional walls."""

    grid_side: int = 5
    depots: tuple = DEFAULT_TAXI_DEPOTS
    walls: tuple = DEFAULT_TAXI_WALLS

    def __post_init__(self):
        _check_fields(self, "taxi", grid_side=_INT, depots=_CELLS, walls=_WALLS)
        g = self.grid_side
        if g < 2:
            raise ValueError(f"taxi spec: grid_side must be >= 2, got {g}")
        depots = tuple(map(tuple, self.depots))
        walls = tuple((tuple(a), tuple(b)) for a, b in self.walls)
        if len(depots) != 4:
            raise ValueError(f"taxi spec: exactly 4 depots required, got {len(depots)}")
        _check_states("taxi", g * g * (len(depots) + 1))
        if len(set(depots)) != 4:
            raise ValueError("taxi spec: depots must be distinct")
        for r, c in depots + sum(walls, ()):
            if not (0 <= r < g and 0 <= c < g):
                raise ValueError(f"taxi spec: cell ({r}, {c}) is outside the {g}x{g} grid")
        for a, b in walls:
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise ValueError(f"taxi spec: wall cells {a} and {b} are not adjacent")
        object.__setattr__(self, "depots", depots)
        object.__setattr__(self, "walls", walls)

    @property
    def n_cells(self) -> int:
        return self.grid_side * self.grid_side

    @property
    def n_passenger(self) -> int:
        return len(self.depots) + 1


@dataclass(frozen=True)
class RingSpec:
    """Cycle of n positions."""

    n: int

    def __post_init__(self):
        _check_fields(self, "ring", n=_INT)
        if self.n < 3:
            raise ValueError(f"ring spec: n must be >= 3, got {self.n}")
        _check_states("ring", self.n)


# ---------------------------------------------------------------------------
# Shared uniform-walk-with-twin construction
# ---------------------------------------------------------------------------


def _check_twin_weight(twin_weight, where: str = "") -> None:
    """Raise ValueError unless the twin weight is None or lies in (0, 1)."""
    if twin_weight is not None and not 0.0 < twin_weight < 1.0:
        raise ValueError(f"{where}field 'twin_weight' must lie in (0, 1), got {twin_weight}")


def _uniform_twin_lmdp(successors, labels, r_step, lam, twin_weight=None) -> Lmdp:
    """Assemble an Lmdp from interior successor lists plus per-state twins.

    With ``twin_weight=None`` the twin counts as one extra uniform neighbor
    (probability 1/(deg+1) each); otherwise the twin takes ``twin_weight``
    and the neighbors split the remainder evenly.
    """
    n = len(successors)
    _check_twin_weight(twin_weight)
    rows, cols, vals = [], [], []
    twin_p = np.empty(n)
    for s, nbrs in enumerate(successors):
        deg = len(nbrs)
        if twin_weight is None:
            p_twin = 1.0 / (deg + 1)
            p_nbr = p_twin
        else:
            p_twin = twin_weight if deg else 1.0
            p_nbr = (1.0 - p_twin) / deg if deg else 0.0
        twin_p[s] = p_twin
        for i in nbrs:
            rows.append(i)
            cols.append(s)
            vals.append(p_nbr)
    P_ii = Triplets.canonical((n, n), rows, cols, vals)
    P_bi = Triplets.canonical((n, n), np.arange(n), np.arange(n), twin_p)
    all_labels = tuple(labels) + tuple(f"exit:{x}" for x in labels)
    return Lmdp(n, n, P_ii, P_bi, np.full(n, float(r_step)), lam, all_labels)


def _grid_successors(rows: int, cols: int, open_edge) -> list[list[int]]:
    """Row-major successor lists of the 4-neighbour walk on a rows x cols grid.

    Neighbours are tried up, down, left, right, and kept where they lie on
    the grid and ``open_edge((r, c), (r2, c2))`` holds.
    """
    return [
        [r2 * cols + c2 for r2, c2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
         if 0 <= r2 < rows and 0 <= c2 < cols and open_edge((r, c), (r2, c2))]
        for r in range(rows) for c in range(cols)
    ]


# ---------------------------------------------------------------------------
# Rooms
# ---------------------------------------------------------------------------


def _snake_room_order(spec: RoomsSpec):
    order = []
    for rr in range(spec.room_rows):
        cs = range(spec.room_cols)
        order.extend((rr, rc) for rc in (cs if rr % 2 == 0 else reversed(cs)))
    return order


def _room_pairs(spec: RoomsSpec):
    """Adjacent room pairs that receive a doorway, as ((R1,C1),(R2,C2))."""
    if spec.layout == "snake":
        order = _snake_room_order(spec)
        return list(zip(order, order[1:]))
    pairs = []
    for rr in range(spec.room_rows):
        for rc in range(spec.room_cols):
            if rc + 1 < spec.room_cols:
                pairs.append(((rr, rc), (rr, rc + 1)))
            if rr + 1 < spec.room_rows:
                pairs.append(((rr, rc), (rr + 1, rc)))
    return pairs


def rooms_doorway_pairs(spec: RoomsSpec):
    """Doorway cell pairs ((r1,c1),(r2,c2)), one per connected room pair.

    The doorway sits at the middle of the shared wall.
    """
    size, mid = spec.room_size, spec.room_size // 2
    out = []
    for (r1, c1), (r2, c2) in _room_pairs(spec):
        if r1 == r2:  # horizontally adjacent rooms
            (cl, cr) = (c1, c2) if c1 < c2 else (c2, c1)
            row = r1 * size + mid
            out.append(((row, cl * size + size - 1), (row, cr * size)))
        else:  # vertically adjacent
            (rt, rb) = (r1, r2) if r1 < r2 else (r2, r1)
            col = c1 * size + mid
            out.append(((rt * size + size - 1, col), (rb * size, col)))
    return out


def build_rooms(spec: RoomsSpec, r_step=DEFAULT_R_STEP, lam=DEFAULT_LAMBDA,
                twin_weight=None) -> Lmdp:
    """Uniform-walk LMDP over a grid of rooms; cells indexed row-major."""
    size, rows, cols = spec.room_size, spec.rows, spec.cols
    doorways = {frozenset(p) for p in rooms_doorway_pairs(spec)}

    def open_edge(a, b):
        same_room = (a[0] // size, a[1] // size) == (b[0] // size, b[1] // size)
        return same_room or frozenset((a, b)) in doorways

    successors = _grid_successors(rows, cols, open_edge)
    labels = [f"cell({r},{c})" for r in range(rows) for c in range(cols)]
    return _uniform_twin_lmdp(successors, labels, r_step, lam, twin_weight)


def rooms_room_labels(spec: RoomsSpec) -> np.ndarray:
    """Room index (row-major over rooms) for every interior cell."""
    rr = np.arange(spec.rows) // spec.room_size
    rc = np.arange(spec.cols) // spec.room_size
    return (rr[:, None] * spec.room_cols + rc[None, :]).reshape(-1)


def rooms_quadrant_labels(spec: RoomsSpec) -> np.ndarray:
    """Quadrant index (0..3) for every interior cell, splitting rooms in halves."""
    return room_quadrant_of(spec, rooms_room_labels(spec))


def room_quadrant_of(spec: RoomsSpec, room):
    """Quadrant containing a room (rooms indexed row-major); elementwise on
    an array of rooms."""
    rr, rc = divmod(room, spec.room_cols)
    return (2 * rr // spec.room_rows) * 2 + (2 * rc // spec.room_cols)


# ---------------------------------------------------------------------------
# Taxi
# ---------------------------------------------------------------------------


def build_taxi(spec: TaxiSpec, r_step=DEFAULT_R_STEP, lam=DEFAULT_LAMBDA,
               twin_weight=None) -> Lmdp:
    """Taxi-world LMDP on the product of taxi cell and passenger location.

    Passenger location is one of the four depots (blocks 0..3) or in-taxi
    (last block). Movement never changes the passenger location; pick-up and
    drop-off edges connect blocks only at the matching depot cell.
    """
    g, n_cells = spec.grid_side, spec.n_cells
    in_taxi = len(spec.depots)
    blocked = {frozenset(p) for p in spec.walls}

    def cell_index(r, c):
        return r * g + c

    move_nbrs = _grid_successors(g, g, lambda a, b: frozenset((a, b)) not in blocked)

    successors, labels = [], []
    for ploc in range(spec.n_passenger):
        pname = IN_TAXI_NAME if ploc == in_taxi else PASSENGER_NAMES[ploc]
        for cell in range(n_cells):
            nbrs = [ploc * n_cells + m for m in move_nbrs[cell]]
            if ploc < in_taxi and cell == cell_index(*spec.depots[ploc]):
                nbrs.append(in_taxi * n_cells + cell)  # pick-up
            if ploc == in_taxi:
                for d, depot in enumerate(spec.depots):
                    if cell == cell_index(*depot):
                        nbrs.append(d * n_cells + cell)  # drop-off
            successors.append(nbrs)
            r, c = divmod(cell, g)
            labels.append(f"taxi({r},{c})|pass({pname})")
    return _uniform_twin_lmdp(successors, labels, r_step, lam, twin_weight)


def taxi_block_labels(spec: TaxiSpec) -> np.ndarray:
    """Passenger-location block index for every interior state."""
    return np.repeat(np.arange(spec.n_passenger), spec.n_cells)


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------


def build_ring(spec: RingSpec, r_step=DEFAULT_R_STEP, lam=DEFAULT_LAMBDA,
               twin_weight=None) -> Lmdp:
    """Uniform walk on an n-cycle with per-position twins."""
    n = spec.n
    successors = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    labels = [f"pos({i})" for i in range(n)]
    return _uniform_twin_lmdp(successors, labels, r_step, lam, twin_weight)


# ---------------------------------------------------------------------------
# Domain-config files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainConfig:
    """Parsed form of the domain-spec JSON {"type", "params", "r_step", "lambda"}.

    ``spec`` is built from every param but ``twin_weight``, which is None
    (the uniform exit share) unless the params set it.
    """

    kind: str
    spec: RoomsSpec | TaxiSpec | RingSpec
    r_step: float = DEFAULT_R_STEP
    lam: float = DEFAULT_LAMBDA
    twin_weight: float | None = None


def parse_domain_config(obj) -> DomainConfig:
    """Check a domain-spec JSON object and build its spec; ValueError if invalid."""
    if not isinstance(obj, dict):
        raise ValueError("domain config must be a JSON object")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in DOMAINS:
        raise ValueError(
            f"field 'type' must be one of {', '.join(map(repr, DOMAINS))}, got {kind!r}"
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("field 'params' must be an object")
    unknown = set(obj) - {"type", "params", "r_step", "lambda"}
    if unknown:
        raise ValueError(f"unknown domain config field {sorted(unknown)[0]!r}")
    obj = {"r_step": DEFAULT_R_STEP, "lambda": DEFAULT_LAMBDA, **obj}
    r_step, lam = (_json_field(obj, key, _is_number, "a number", "domain config")
                   for key in ("r_step", "lambda"))
    # a number built in-process may still be NaN or infinite
    if not (abs(r_step) <= sys.float_info.max and abs(lam) <= sys.float_info.max):
        raise ValueError(f"fields 'r_step' and 'lambda' must be finite, "
                         f"got {r_step!r:.40}, {lam!r:.40}")
    r_step, lam = float(r_step), float(lam)
    if not lam > 0:
        raise ValueError(f"field 'lambda' must be positive, got {lam}")
    spec_cls = DOMAINS[kind][0]
    params = dict(params)
    tw = params.pop("twin_weight", None)
    if tw is not None and not _is_number(tw):
        raise ValueError(f"{kind} spec: field 'twin_weight' must be a number, "
                         f"got {tw!r:.40}")
    _check_twin_weight(tw, f"{kind} spec: ")
    defaults = {f.name: f.default for f in fields(spec_cls)}
    for key in params:
        if key not in defaults:
            raise ValueError(f"unknown {kind} parameter {key!r}")
    for name, default in defaults.items():
        if default is MISSING and name not in params:
            raise ValueError(f"{kind} spec is missing parameter {name!r}")
    return DomainConfig(kind, spec_cls(**params), r_step, lam, tw)


def build_domain(cfg: DomainConfig) -> Lmdp:
    return DOMAINS[cfg.kind][1](cfg.spec, cfg.r_step, cfg.lam, cfg.twin_weight)


def region_labels(cfg: DomainConfig, kind: str | None = None) -> np.ndarray:
    """Ground-truth region label per interior state for purity analysis.

    ``kind`` is one of the domain's label kinds in :data:`DOMAINS`; None is
    the first, its default.
    """
    labelers = DOMAINS[cfg.kind][2]
    if not labelers:
        having = " or ".join(k for k, (_, _, by) in DOMAINS.items() if by)
        raise ValueError(f"no region labels defined for {cfg.kind} domains; "
                         f"pass --labels with a {having} domain")
    kind = kind or next(iter(labelers))
    if kind not in labelers:
        raise ValueError(f"{cfg.kind} domains support labels "
                         f"{' or '.join(map(repr, labelers))}, got {kind!r}")
    return labelers[kind](cfg.spec)


#: kind -> (spec class, builder, {label kind: labeler}). The first label
#: kind is the default for purity analysis.
DOMAINS = {
    "rooms": (RoomsSpec, build_rooms,
              {"rooms": rooms_room_labels, "quadrants": rooms_quadrant_labels}),
    "taxi": (TaxiSpec, build_taxi, {"blocks": taxi_block_labels}),
    "ring": (RingSpec, build_ring, {}),
}
