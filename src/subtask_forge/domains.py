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

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .lmdp_core import Lmdp, PassiveDynamics, StateSpace

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


def _coerce_ints(spec, *names) -> None:
    """Store int(value) for each named field of a frozen spec."""
    for name in names:
        object.__setattr__(spec, name, int(getattr(spec, name)))


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
        _coerce_ints(self, "room_rows", "room_cols", "room_size")
        if self.room_rows < 1 or self.room_cols < 1:
            raise ValueError(
                f"rooms spec: room_rows and room_cols must be >= 1, "
                f"got {self.room_rows} and {self.room_cols}"
            )
        if self.room_size < 2:
            raise ValueError(f"rooms spec: room_size must be >= 2, got {self.room_size}")
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
        _coerce_ints(self, "grid_side")
        g = self.grid_side
        if g < 2:
            raise ValueError(f"taxi spec: grid_side must be >= 2, got {g}")
        depots = tuple((int(r), int(c)) for r, c in self.depots)
        if len(depots) != 4:
            raise ValueError(f"taxi spec: exactly 4 depots required, got {len(depots)}")
        if len(set(depots)) != 4:
            raise ValueError("taxi spec: depots must be distinct")
        for r, c in depots:
            if not (0 <= r < g and 0 <= c < g):
                raise ValueError(f"taxi spec: depot ({r}, {c}) is outside the {g}x{g} grid")
        walls = []
        for pair in self.walls:
            (r1, c1), (r2, c2) = pair
            a, b = (int(r1), int(c1)), (int(r2), int(c2))
            for r, c in (a, b):
                if not (0 <= r < g and 0 <= c < g):
                    raise ValueError(f"taxi spec: wall cell ({r}, {c}) is outside the grid")
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise ValueError(f"taxi spec: wall cells {a} and {b} are not adjacent")
            walls.append((a, b))
        object.__setattr__(self, "depots", depots)
        object.__setattr__(self, "walls", tuple(walls))

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
        _coerce_ints(self, "n")
        if self.n < 3:
            raise ValueError(f"ring spec: n must be >= 3, got {self.n}")


# ---------------------------------------------------------------------------
# Shared uniform-walk-with-twin construction
# ---------------------------------------------------------------------------


def _uniform_twin_lmdp(successors, labels, r_step, lam, twin_weight=None) -> Lmdp:
    """Assemble an Lmdp from interior successor lists plus per-state twins.

    With ``twin_weight=None`` the twin counts as one extra uniform neighbor
    (probability 1/(deg+1) each); otherwise the twin takes ``twin_weight``
    and the neighbors split the remainder evenly.
    """
    n = len(successors)
    if twin_weight is not None and not 0.0 < twin_weight < 1.0:
        raise ValueError(f"twin_weight must lie in (0, 1), got {twin_weight}")
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
    from scipy import sparse  # slow to import; only LMDP commands need it

    P_ii = sparse.coo_array((vals, (rows, cols)), shape=(n, n)).tocsc()
    P_bi = sparse.dia_array((twin_p[None, :], [0]), shape=(n, n)).tocsc()
    all_labels = tuple(labels) + tuple(f"exit:{x}" for x in labels)
    return Lmdp(
        space=StateSpace(n, n, all_labels),
        dynamics=PassiveDynamics(P_ii, P_bi),
        r_interior=np.full(n, float(r_step)),
        lam=lam,
    )


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


def rooms_doorway_cells(spec: RoomsSpec):
    """Sorted interior indices of all cells incident to a doorway edge."""
    cells = set()
    for a, b in rooms_doorway_pairs(spec):
        cells.add(a[0] * spec.cols + a[1])
        cells.add(b[0] * spec.cols + b[1])
    return sorted(cells)


def build_rooms(spec: RoomsSpec, r_step=DEFAULT_R_STEP, lam=DEFAULT_LAMBDA,
                twin_weight=None) -> Lmdp:
    """Uniform-walk LMDP over a grid of rooms; cells indexed row-major."""
    size, rows, cols = spec.room_size, spec.rows, spec.cols
    doorways = {frozenset(p) for p in rooms_doorway_pairs(spec)}

    def room_of(r, c):
        return (r // size, c // size)

    successors = []
    for r in range(rows):
        for c in range(cols):
            nbrs = []
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                r2, c2 = r + dr, c + dc
                if not (0 <= r2 < rows and 0 <= c2 < cols):
                    continue
                same_room = room_of(r, c) == room_of(r2, c2)
                if same_room or frozenset(((r, c), (r2, c2))) in doorways:
                    nbrs.append(r2 * cols + c2)
            successors.append(nbrs)
    labels = [f"cell({r},{c})" for r in range(rows) for c in range(cols)]
    return _uniform_twin_lmdp(successors, labels, r_step, lam, twin_weight)


def rooms_room_labels(spec: RoomsSpec) -> np.ndarray:
    """Room index (row-major over rooms) for every interior cell."""
    size = spec.room_size
    out = np.empty(spec.n_cells, dtype=int)
    for r in range(spec.rows):
        for c in range(spec.cols):
            out[r * spec.cols + c] = (r // size) * spec.room_cols + (c // size)
    return out


def rooms_quadrant_labels(spec: RoomsSpec) -> np.ndarray:
    """Quadrant index (0..3) for every interior cell, splitting rooms in halves."""
    size = spec.room_size
    out = np.empty(spec.n_cells, dtype=int)
    for r in range(spec.rows):
        for c in range(spec.cols):
            rr, rc = r // size, c // size
            out[r * spec.cols + c] = (2 * rr // spec.room_rows) * 2 + (2 * rc // spec.room_cols)
    return out


def room_quadrant_of(spec: RoomsSpec, room: int) -> int:
    """Quadrant containing a room (rooms indexed row-major)."""
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

    move_nbrs = []
    for r in range(g):
        for c in range(g):
            nbrs = []
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < g and 0 <= c2 < g and frozenset(((r, c), (r2, c2))) not in blocked:
                    nbrs.append(cell_index(r2, c2))
            move_nbrs.append(nbrs)

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
    """Parsed form of the domain-spec JSON {"type", "params", "r_step", "lambda"}."""

    kind: str
    params: dict = field(default_factory=dict)
    r_step: float = DEFAULT_R_STEP
    lam: float = DEFAULT_LAMBDA


def parse_domain_config(obj) -> DomainConfig:
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
    try:
        r_step = float(obj.get("r_step", DEFAULT_R_STEP))
        lam = float(obj.get("lambda", DEFAULT_LAMBDA))
    except (TypeError, ValueError):
        raise ValueError("fields 'r_step' and 'lambda' must be numbers") from None
    if not (np.isfinite(r_step) and np.isfinite(lam)):
        raise ValueError(f"fields 'r_step' and 'lambda' must be finite, got {r_step}, {lam}")
    if not lam > 0:
        raise ValueError(f"field 'lambda' must be positive, got {lam}")
    return DomainConfig(kind=kind, params=dict(params), r_step=r_step, lam=lam)


def domain_spec(cfg: DomainConfig):
    """``(spec, twin_weight)`` for a config; the spec's fields are its parameters.

    ``twin_weight`` is None (the uniform exit share) unless the params set it.
    """
    spec_cls = DOMAINS[cfg.kind][0]
    params = dict(cfg.params)
    tw = params.pop("twin_weight", None)
    defaults = {f.name: f.default for f in fields(spec_cls)}
    for key in params:
        if key not in defaults:
            raise ValueError(f"unknown {cfg.kind} parameter {key!r}")
    for name, default in defaults.items():
        if default is MISSING and name not in params:
            raise ValueError(f"{cfg.kind} spec is missing parameter {name!r}")
    try:
        spec = spec_cls(**params)
        twin_weight = None if tw is None or tw is False else float(tw)
    except (TypeError, OverflowError) as exc:  # int() of an infinite size
        raise ValueError(f"{cfg.kind} spec: {exc}") from None
    return spec, twin_weight


def build_domain(cfg: DomainConfig) -> Lmdp:
    spec, twin_weight = domain_spec(cfg)
    return DOMAINS[cfg.kind][1](spec, cfg.r_step, cfg.lam, twin_weight)


def region_labels(cfg: DomainConfig, kind: str) -> np.ndarray:
    """Ground-truth region label per interior state for purity analysis.

    ``kind`` is one of the domain's label kinds in :data:`DOMAINS`.
    """
    spec, _ = domain_spec(cfg)
    labelers = DOMAINS[cfg.kind][2]
    if not labelers:
        raise ValueError(f"no region labels defined for {cfg.kind!r} domains")
    if kind not in labelers:
        raise ValueError(f"{cfg.kind} domains support labels "
                         f"{' or '.join(map(repr, labelers))}, got {kind!r}")
    return labelers[kind](spec)


#: kind -> (spec class, builder, {label kind: labeler}). The first label
#: kind is the default for purity analysis.
DOMAINS = {
    "rooms": (RoomsSpec, build_rooms,
              {"rooms": rooms_room_labels, "quadrants": rooms_quadrant_labels}),
    "taxi": (TaxiSpec, build_taxi, {"blocks": taxi_block_labels}),
    "ring": (RingSpec, build_ring, {}),
}
