"""Atomic file helpers and the shared matrix CSV format.

Matrix CSV: first line is ``rows,cols``; each following line is one matrix
row, comma-separated, with round-trip decimal precision (``repr`` of the
float), newline-terminated, UTF-8.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np


def write_matrix_csv(path: str | Path, matrix) -> None:
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"matrix CSV needs a 2-D array, got shape {M.shape}")
    lines = [f"{M.shape[0]},{M.shape[1]}\n"]
    for row in M:  # row by row: a whole-matrix tolist() would hold every float at once
        lines.append(",".join(map(repr, row.tolist())) + "\n")
    atomic_write_text(path, "".join(lines))


def read_matrix_csv(path: str | Path) -> np.ndarray:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty matrix CSV")
    try:
        rows_s, cols_s = lines[0].split(",")
        rows, cols = int(rows_s), int(cols_s)
    except ValueError as exc:
        raise ValueError(f"{path}: bad header {lines[0]!r}, expected 'rows,cols'") from exc
    if len(lines) - 1 != rows:
        raise ValueError(f"{path}: header declares {rows} rows, file has {len(lines) - 1}")
    out = np.empty((rows, cols), dtype=float)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != cols:
            raise ValueError(f"{path}: row {i} has {len(parts)} values, expected {cols}")
        out[i] = list(map(float, parts))
    return out


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def read_json(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@contextmanager
def staged_dir(final_path: str | Path):
    """Yield a staging directory that replaces ``final_path`` on success.

    On error the staging directory is removed and the previous contents of
    ``final_path`` (if any) are left untouched, also when the final rename
    fails: the old directory is moved aside first and moved back on failure.
    """
    final = Path(final_path)
    final.parent.mkdir(parents=True, exist_ok=True)
    staging = final.with_name(f".{final.name}.stage-{os.getpid()}")
    aside = final.with_name(f".{final.name}.old-{os.getpid()}")
    for leftover in (staging, aside):
        shutil.rmtree(leftover, ignore_errors=True)
    staging.mkdir()
    try:
        yield staging
        if final.exists():
            os.rename(final, aside)
        os.replace(staging, final)
    except BaseException:
        if aside.exists():  # the final rename failed: put the old output back
            os.rename(aside, final)
        shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(aside, ignore_errors=True)
