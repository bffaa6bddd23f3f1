import numpy as np
import pytest

from subtask_forge.domains import DomainConfig, RingSpec, RoomsSpec, TaxiSpec
from subtask_forge.render import (
    _DARK,
    _fills,
    render_column_svg,
    render_factorization_files,
    render_ring_svg,
    render_rooms_svg,
    render_taxi_svg,
)


def test_rooms_svg_structure():
    spec = RoomsSpec(2, 2, 3)  # 6x6 cells, one seam each way
    svg = render_rooms_svg(spec, np.linspace(0.0, 1.0, 36))
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.count("<rect") == 36
    assert svg.count("<line") == 2
    # max-valued cell is fully dark, zero cell is white
    assert 'fill="rgb(8,48,107)"' in svg
    assert 'fill="rgb(255,255,255)"' in svg


def loop_fill(v: float) -> str:
    """The fill of one value, one channel at a time: the reference for _fills."""
    v = min(max(float(v), 0.0), 1.0)
    r, g, b = (round(255 + (dark - 255) * v) for dark in _DARK)
    return f"rgb({r},{g},{b})"


def test_fills_match_the_per_value_reference():
    # 0.5 puts two channels on exact halves (131.5, 151.5): both round to even
    values = np.concatenate([[-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0],
                             np.arange(1025) / 1024,
                             np.random.default_rng(3).uniform(0.0, 1.0, 4000)])
    assert _fills(values) == [loop_fill(v) for v in values]
    assert _fills([0.5]) == ["rgb(132,152,181)"]


def test_taxi_svg_has_one_panel_per_passenger_state():
    spec = TaxiSpec()
    svg = render_taxi_svg(spec, np.ones(125))
    assert svg.count("<rect") == 125
    assert svg.count("<text") == 5
    for title in (">A<", ">B<", ">C<", ">D<", ">*<"):
        assert title in svg


def test_ring_svg_scales_cell_width():
    assert render_ring_svg(RingSpec(8), np.ones(8)).count("<rect") == 8
    # 1024 // 600 < 3, so the cell floor kicks in and the strip still renders
    svg = render_ring_svg(RingSpec(600), np.ones(600))
    assert svg.count("<rect") == 600
    assert 'width="3"' in svg


def test_normalization_and_validation():
    spec = RingSpec(4)
    # all-zero columns pass through unscaled instead of dividing by zero
    svg = render_ring_svg(spec, np.zeros(4))
    assert svg.count('fill="rgb(255,255,255)"') == 4
    with pytest.raises(ValueError, match="expected 4"):
        render_ring_svg(spec, np.ones(5))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        render_ring_svg(spec, np.array([1.0, -0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        render_ring_svg(spec, np.array([1.0, np.nan, 0.0, 0.0]))


def test_render_column_dispatches_on_kind():
    cfg = DomainConfig("rooms", RoomsSpec(2, 2, 3))
    assert render_column_svg(cfg, np.ones(36)).count("<rect") == 36
    cfg = DomainConfig("ring", RingSpec(5))
    assert render_column_svg(cfg, np.ones(5)).count("<rect") == 5


def test_render_factorization_files(tmp_path):
    cfg = DomainConfig("ring", RingSpec(5))
    D = np.abs(np.random.default_rng(0).standard_normal((5, 3)))
    names = render_factorization_files(tmp_path, cfg, D)
    assert names == ["subtask_00.svg", "subtask_01.svg", "subtask_02.svg"]
    for name in names:
        assert (tmp_path / name).read_text().startswith("<svg")
    # eleven columns pad to the width of the largest index
    names = render_factorization_files(tmp_path, cfg, np.ones((5, 11)))
    assert names[0] == "subtask_00.svg" and names[-1] == "subtask_10.svg"
    with pytest.raises(ValueError, match="2-D"):
        render_factorization_files(tmp_path, cfg, np.ones(5))
