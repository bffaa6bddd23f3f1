"""Static SVG heatmaps of subtask columns over domain geometry.

Each subtask column is shaded from white to deep blue by its normalized
value. Rooms domains render as their cell grid with room seams marked,
taxi domains as five side-by-side passenger panels, rings as one strip.
"""

from __future__ import annotations

import os

import numpy as np

from .domains import (
    IN_TAXI_NAME,
    PASSENGER_NAMES,
    DomainConfig,
    RingSpec,
    RoomsSpec,
    TaxiSpec,
)
from . import fileio

_DARK = (8, 48, 107)
CELL = 16
PAD = 8


def _fills(values) -> list[str]:
    """The fill of each value, white at 0 to ``_DARK`` at 1, clipped to [0, 1].

    Each channel is rounded half to even by ``np.round``, as ``round`` does.
    """
    v = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)[:, None]
    rgb = np.round(255 + (np.array(_DARK) - 255) * v).astype(int)
    return [f"rgb({r},{g},{b})" for r, g, b in rgb.tolist()]


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _rect(x, y, w, h, fill) -> str:
    return f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}"/>'


def _grid_rects(values, rows, cols, x0, y0) -> list[str]:
    fills = _fills(values)
    out = []
    for r in range(rows):
        for c in range(cols):
            out.append(_rect(
                x0 + c * CELL, y0 + r * CELL, CELL, CELL, fills[r * cols + c]
            ))
    return out


def _seam(x1, y1, x2, y2) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        'stroke="rgb(120,120,120)" stroke-width="1.5"/>'
    )


def render_rooms_svg(spec: RoomsSpec, column) -> str:
    values = _normalize(column, spec.n_cells)
    rows, cols = spec.rows, spec.cols
    body = _grid_rects(values, rows, cols, PAD, PAD)
    for rr in range(1, spec.room_rows):
        y = PAD + rr * spec.room_size * CELL
        body.append(_seam(PAD, y, PAD + cols * CELL, y))
    for rc in range(1, spec.room_cols):
        x = PAD + rc * spec.room_size * CELL
        body.append(_seam(x, PAD, x, PAD + rows * CELL))
    return _svg(2 * PAD + cols * CELL, 2 * PAD + rows * CELL, body)


def render_taxi_svg(spec: TaxiSpec, column) -> str:
    g = spec.grid_side
    n_p = spec.n_passenger
    values = _normalize(column, n_p * g * g)
    panel_w = g * CELL + PAD
    body = []
    names = PASSENGER_NAMES[: n_p - 1] + (IN_TAXI_NAME,)
    for p in range(n_p):
        x0 = PAD + p * panel_w
        body.append(
            f'<text x="{x0 + g * CELL // 2}" y="{PAD + 12}" font-size="12" '
            f'text-anchor="middle" font-family="monospace">{names[p]}</text>'
        )
        block = values[p * g * g:(p + 1) * g * g]
        body.extend(_grid_rects(block, g, g, x0, PAD + 18))
    width = PAD + n_p * panel_w
    return _svg(width, 2 * PAD + 18 + g * CELL, body)


def render_ring_svg(spec: RingSpec, column) -> str:
    values = _normalize(column, spec.n)
    cell = max(3, min(CELL, 1024 // spec.n))
    body = [
        _rect(PAD + i * cell, PAD, cell, 3 * cell, fill)
        for i, fill in enumerate(_fills(values))
    ]
    return _svg(2 * PAD + spec.n * cell, 2 * PAD + 3 * cell, body)


def _normalize(column, expected: int) -> np.ndarray:
    v = np.asarray(column, dtype=float).reshape(-1)
    if v.shape != (expected,):
        raise ValueError(f"column has {v.size} entries, expected {expected}")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError("column values must be finite and nonnegative")
    top = v.max()
    return v / top if top > 0 else v


_DRAWERS = {RoomsSpec: render_rooms_svg, TaxiSpec: render_taxi_svg,
            RingSpec: render_ring_svg}


def render_column_svg(cfg: DomainConfig, column) -> str:
    return _DRAWERS[type(cfg.spec)](cfg.spec, column)


def render_factorization_files(dir_path, cfg: DomainConfig, D) -> list[str]:
    """Write one subtask_<t>.svg per column of D; returns the file names."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise ValueError(f"D must be 2-D, got ndim={D.ndim}")
    width = max(2, len(str(D.shape[1] - 1)))
    names = []
    for t in range(D.shape[1]):
        name = f"subtask_{t:0{width}d}.svg"
        fileio.atomic_write_text(os.path.join(dir_path, name),
                                 render_column_svg(cfg, D[:, t]))
        names.append(name)
    return names
