import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labels_boundary, labels_interior
from subtask_forge.domains import (
    DEFAULT_TAXI_DEPOTS,
    DomainConfig,
    RingSpec,
    RoomsSpec,
    TaxiSpec,
    build_domain,
    build_ring,
    build_rooms,
    build_taxi,
    parse_domain_config,
    region_labels,
    room_quadrant_of,
    rooms_doorway_cells,
    rooms_doorway_pairs,
    rooms_quadrant_labels,
    rooms_room_labels,
    taxi_block_labels,
)
from subtask_forge.lmdp_core import validate_lmdp


def column_sums(L):
    return np.asarray(L.dynamics.stacked().sum(axis=0)).reshape(-1)


def test_rooms_2x2x3_counts():
    spec = RoomsSpec(2, 2, 3)
    L = build_rooms(spec)
    assert (L.n_interior, L.n_boundary) == (36, 36)
    assert validate_lmdp(L).ok
    assert len(rooms_doorway_pairs(spec)) == 4
    assert len(rooms_doorway_cells(spec)) == 8


def test_rooms_4x4x5_counts():
    spec = RoomsSpec(4, 4, 5)
    assert spec.n_cells == 400
    assert len(rooms_doorway_pairs(spec)) == 24
    assert len(rooms_doorway_cells(spec)) == 48


def test_rooms_doorway_positions():
    # 2x2 rooms of size 3: doorways sit at the middle of each shared wall
    pairs = {frozenset(p) for p in rooms_doorway_pairs(RoomsSpec(2, 2, 3))}
    assert frozenset({(1, 2), (1, 3)}) in pairs
    assert frozenset({(4, 2), (4, 3)}) in pairs
    assert frozenset({(2, 1), (3, 1)}) in pairs
    assert frozenset({(2, 4), (3, 4)}) in pairs


def test_rooms_walls_block_everything_else():
    spec = RoomsSpec(2, 2, 3)
    L = build_rooms(spec)
    P_ii = np.asarray(L.dynamics.P_ii.todense())
    room = rooms_room_labels(spec)
    doorways = {frozenset((a[0] * 6 + a[1], b[0] * 6 + b[1]))
                for a, b in rooms_doorway_pairs(spec)}
    cross = np.argwhere((P_ii > 0) & (room[:, None] != room[None, :]))
    assert {frozenset(edge) for edge in cross.tolist()} == doorways


def test_snake_layout_links_rooms_along_path():
    spec = RoomsSpec(2, 2, 3, layout="snake")
    pairs = rooms_doorway_pairs(spec)
    assert len(pairs) == 3
    # serpentine order (0,0) (0,1) (1,1) (1,0): no doorway between (0,0)-(1,0)
    cells = {frozenset(p) for p in pairs}
    assert frozenset({(2, 1), (3, 1)}) not in cells


def test_rooms_labels():
    L = build_rooms(RoomsSpec(2, 2, 3))
    assert labels_interior(L)[0] == "cell(0,0)"
    assert labels_interior(L)[7] == "cell(1,1)"
    assert labels_boundary(L)[0] == "exit:cell(0,0)"


def test_rooms_twin_weight_column():
    L = build_rooms(RoomsSpec(2, 2, 3), twin_weight=0.01)
    # corner cell 0 has two in-room neighbors
    col = np.asarray(L.dynamics.P_ii.todense())[:, 0]
    assert L.dynamics.P_bi[0, 0] == 0.01
    np.testing.assert_allclose(col[col > 0], (1 - 0.01) / 2)
    assert np.all(np.abs(column_sums(L) - 1) < 1e-12)


def test_rooms_uniform_twin_column():
    L = build_rooms(RoomsSpec(2, 2, 3))
    # corner cell: twin and both neighbors each get 1/3
    assert L.dynamics.P_bi[0, 0] == pytest.approx(1 / 3, rel=1e-15)


def test_rooms_transposition_equivariance():
    a = build_rooms(RoomsSpec(2, 3, 3))
    b = build_rooms(RoomsSpec(3, 2, 3))
    Pa = np.asarray(a.dynamics.P_ii.todense())
    Pb = np.asarray(b.dynamics.P_ii.todense())
    # map (r, c) of a to (c, r) of b
    rows_a, cols_a = 6, 9
    perm = np.array([c * rows_a + r for r in range(rows_a) for c in range(cols_a)])
    np.testing.assert_array_equal(Pa, Pb[np.ix_(perm, perm)])


def test_room_and_quadrant_labels():
    spec = RoomsSpec(4, 4, 5)
    room = rooms_room_labels(spec)
    quad = rooms_quadrant_labels(spec)
    assert np.bincount(room).tolist() == [25] * 16
    assert np.bincount(quad).tolist() == [100] * 4
    assert room[0] == 0 and room[-1] == 15
    for r in range(16):
        cells = quad[room == r]
        assert np.all(cells == cells[0])
        assert cells[0] == room_quadrant_of(spec, r)


def test_taxi_counts_and_blocks():
    spec = TaxiSpec()
    L = build_taxi(spec)
    assert (L.n_interior, L.n_boundary) == (125, 125)
    assert validate_lmdp(L).ok
    labels = taxi_block_labels(spec)
    assert np.bincount(labels).tolist() == [25] * 5
    assert labels_interior(L)[0] == "taxi(0,0)|pass(A)"
    assert labels_interior(L)[124] == "taxi(4,4)|pass(*)"


def test_taxi_cross_block_edges():
    spec = TaxiSpec()
    L = build_taxi(spec)
    P_ii = np.asarray(L.dynamics.P_ii.todense())
    blocks = taxi_block_labels(spec)
    cross = np.argwhere((P_ii > 0) & (blocks[:, None] != blocks[None, :]))
    # 4 pick-up edges into the in-taxi block, 4 drop-off edges out of it
    assert len(cross) == 8
    for to, frm in cross:
        r, c = divmod(frm % 25, 5)
        assert (r, c) in DEFAULT_TAXI_DEPOTS
        assert to % 25 == frm % 25  # the cell never changes on a hand-off
        assert 4 in (blocks[to], blocks[frm])


def test_taxi_walls_block_moves():
    L = build_taxi(TaxiSpec())
    P_ii = np.asarray(L.dynamics.P_ii.todense())
    # classic wall between (0,1) and (0,2), checked inside block A
    assert P_ii[2, 1] == 0 and P_ii[1, 2] == 0
    assert P_ii[1, 0] > 0


def test_taxi_spec_validation():
    with pytest.raises(ValueError, match="grid_side"):
        TaxiSpec(grid_side=1)
    with pytest.raises(ValueError, match="4 depots"):
        TaxiSpec(depots=((0, 0), (0, 4), (4, 0)))
    with pytest.raises(ValueError):
        TaxiSpec(depots=((0, 0), (0, 0), (4, 0), (4, 4)))


def test_ring_structure():
    L = build_ring(RingSpec(8))
    assert (L.n_interior, L.n_boundary) == (8, 8)
    assert validate_lmdp(L).ok
    P_ii = np.asarray(L.dynamics.P_ii.todense())
    np.testing.assert_allclose(P_ii[1, 0], 1 / 3)
    np.testing.assert_allclose(P_ii[7, 0], 1 / 3)
    assert labels_interior(L)[3] == "pos(3)"


def test_ring_rotation_equivariance():
    L = build_ring(RingSpec(8), twin_weight=0.2)
    P = np.asarray(L.dynamics.P_ii.todense())
    perm = (np.arange(8) + 1) % 8
    np.testing.assert_array_equal(P, P[np.ix_(perm, perm)])


def test_spec_validation_messages():
    with pytest.raises(ValueError, match="room_size must be >= 2"):
        RoomsSpec(2, 2, 1)
    with pytest.raises(ValueError, match="layout"):
        RoomsSpec(2, 2, 3, layout="spiral")
    with pytest.raises(ValueError, match="n must be >= 3"):
        RingSpec(2)


def test_spec_state_count_limit():
    # 2**14 interior states are allowed, one more is refused by count
    assert RingSpec(2 ** 14).n == 2 ** 14
    assert RoomsSpec(1, 1, 128).n_cells == 2 ** 14
    with pytest.raises(ValueError, match="ring spec: 16385 interior states exceed"):
        RingSpec(2 ** 14 + 1)
    with pytest.raises(ValueError, match="rooms spec: 16641 interior states"):
        RoomsSpec(1, 1, 129)
    # taxi: grid_side**2 cells times 5 passenger locations
    TaxiSpec(grid_side=57)  # 16245 states
    with pytest.raises(ValueError, match="taxi spec: 16820 interior states"):
        TaxiSpec(grid_side=58)


def test_twin_weight_range():
    with pytest.raises(ValueError, match="twin_weight"):
        build_ring(RingSpec(4), twin_weight=0.0)
    with pytest.raises(ValueError, match="twin_weight"):
        build_ring(RingSpec(4), twin_weight=1.0)


def test_parse_domain_config_roundtrip():
    cfg = parse_domain_config({
        "type": "rooms",
        "params": {"room_rows": 2, "room_cols": 2, "room_size": 3},
        "r_step": -0.5,
        "lambda": 2.0,
    })
    assert cfg == DomainConfig("rooms", {"room_rows": 2, "room_cols": 2,
                                         "room_size": 3}, -0.5, 2.0)
    L = build_domain(cfg)
    assert L.n_interior == 36
    assert L.lam == 2.0
    assert np.all(L.r_interior == -0.5)


def test_parse_domain_config_defaults():
    cfg = parse_domain_config({"type": "taxi"})
    assert (cfg.r_step, cfg.lam) == (-1.0, 1.0)
    assert build_domain(cfg).n_interior == 125


def test_parse_domain_config_errors():
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_domain_config([1, 2])
    with pytest.raises(ValueError, match="'type'"):
        parse_domain_config({"type": "maze"})
    with pytest.raises(ValueError, match="'lambda' must be positive"):
        parse_domain_config({"type": "ring", "params": {"n": 4}, "lambda": 0})
    with pytest.raises(ValueError, match="unknown domain config field 'gamma'"):
        parse_domain_config({"type": "ring", "params": {"n": 4}, "gamma": 1})
    with pytest.raises(ValueError, match="unknown rooms parameter 'room_row'"):
        build_domain(parse_domain_config(
            {"type": "rooms", "params": {"room_row": 2}}
        ))
    with pytest.raises(ValueError, match="missing parameter 'n'"):
        build_domain(parse_domain_config({"type": "ring"}))


def test_region_labels_dispatch():
    rooms_cfg = parse_domain_config(
        {"type": "rooms", "params": {"room_rows": 2, "room_cols": 2, "room_size": 3}}
    )
    taxi_cfg = parse_domain_config({"type": "taxi"})
    ring_cfg = parse_domain_config({"type": "ring", "params": {"n": 4}})
    assert region_labels(rooms_cfg, "rooms").size == 36
    assert region_labels(rooms_cfg, "quadrants").max() == 3
    assert region_labels(taxi_cfg, "blocks").size == 125
    with pytest.raises(ValueError, match="support labels"):
        region_labels(rooms_cfg, "blocks")
    with pytest.raises(ValueError, match="no region labels"):
        region_labels(ring_cfg, "rooms")


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["grid", "snake"]),
)
@settings(max_examples=25, deadline=None)
def test_rooms_always_valid(room_rows, room_cols, room_size, layout):
    spec = RoomsSpec(room_rows, room_cols, room_size, layout)
    L = build_rooms(spec, twin_weight=0.1)
    assert validate_lmdp(L).ok
    n_rooms = room_rows * room_cols
    expected = (n_rooms - 1 if layout == "snake"
                else room_rows * (room_cols - 1) + (room_rows - 1) * room_cols)
    assert len(rooms_doorway_pairs(spec)) == expected
