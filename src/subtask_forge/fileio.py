"""Atomic file helpers and the shared matrix CSV format.

Matrix CSV: first line is ``rows,cols``; each following line is one matrix
row, comma-separated, with round-trip decimal precision (``repr`` of the
float), newline-terminated, UTF-8.

The reader checks the header, then parses the body with numpy's C parser
(``np.loadtxt``). A value is a token that parser reads as a float: decimal
or exponent notation with an optional sign and surrounding blanks, or
``nan``/``inf`` in any case. ``1_0`` and non-ASCII digits are rejected,
although Python's ``float`` takes them. Empty lines are skipped, CRLF and
CR line ends are read as newlines, and the final newline may be missing.

The writer formats rows a block at a time into a temp file that replaces
the target once complete, so the whole text is never held at once. A
matrix of at least ``_FORK_MIN_ENTRIES`` entries, written by a process
that may run on more than one CPU, is formatted on two: a forked child
formats the second half of the rows while this process formats the first.
The bytes are the same either way.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

#: Smallest matrix, in entries, whose second half of rows a forked child
#: formats. Measured on 2 cores: formatting costs 0.7-1.0 us an entry
#: (``repr`` dominates); a fork, ``os._exit`` and wait of a process holding
#: a solved 400^2 or 1600^2 basis (65-160 MB resident) costs 3-7 ms, and
#: appending the part about 0.5 ms per MB. A random 128^2 matrix wrote in
#: 10.8 ms split against 11.8 ms in one process, 256^2 (this floor) in 41
#: against 68 ms. A 125^2 taxi basis stays in one process. ``factorize``
#: splits NMF restarts from the same floor.
_FORK_MIN_ENTRIES = 1 << 16

#: Entries formatted per block of rows: the text held at once is bounded by
#: about 22 bytes times this.
_BLOCK_ENTRIES = 1 << 16


def write_matrix_csv(path: str | Path, matrix) -> None:
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"matrix CSV needs a 2-D array, got shape {M.shape}")
    path = Path(path)
    with _atomic_open(path) as fh:
        fh.write(f"{M.shape[0]},{M.shape[1]}\n".encode())
        if M.size >= _FORK_MIN_ENTRIES and _spare_cpu():
            _write_rows_forked(fh, M, path.parent)
        else:
            _write_rows(fh, M, 0, M.shape[0])


def _spare_cpu() -> bool:
    """True if this process may run on more than one CPU (Linux only)."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _write_rows(fh, M: np.ndarray, start: int, stop: int) -> None:
    """Append rows ``start:stop`` of M to the binary file ``fh``."""
    step = max(1, _BLOCK_ENTRIES // max(M.shape[1], 1))
    for i in range(start, stop, step):
        block = M[i:min(i + step, stop)].tolist()
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in block).encode())


def _write_rows_forked(fh, M: np.ndarray, directory: Path) -> None:
    """Append every row of M to ``fh``, the second half formatted by a child.

    The child writes its rows into a sibling ``.part`` file while this
    process formats the first half; the part is then appended. If the fork
    or the child fails, this process formats the second half itself, so the
    bytes and any error never depend on the child. The part file is removed
    and the child reaped on every path, also when this process fails first.
    """
    rows = M.shape[0]
    half = (rows + 1) // 2
    fd, part = tempfile.mkstemp(dir=directory, prefix=".", suffix=".part")
    pid = None
    try:
        with suppress(OSError):  # no process to spare: format both halves here
            pid = os.fork()
        if pid == 0:
            _child_write_rows(fd, M, half, rows)
        _write_rows(fh, M, 0, half)
        child_ok = pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        pid = None
        if child_ok:
            with open(fd, "rb", closefd=False) as src:
                src.seek(0)  # the child shared this descriptor's offset
                shutil.copyfileobj(src, fh)
        else:
            _write_rows(fh, M, half, rows)
    finally:
        if pid is not None:  # failed before reaping the child: stop it first
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(fd)
        os.unlink(part)


def _child_write_rows(fd: int, M: np.ndarray, start: int, stop: int):
    """In the forked child: write rows ``start:stop`` to ``fd``, then exit.

    Only Python formatting and file writes run here, no BLAS. (The NMF
    restarts' child, :func:`factorize._child_best_of`, does run BLAS, at
    the one thread its parent sets before the fork.) The child leaves by
    ``os._exit`` on every path, so it never flushes the parent's buffers or
    runs its cleanup.
    """
    code = 1
    try:
        with open(fd, "wb", closefd=False) as out:
            _write_rows(out, M, start, stop)
        code = 0
    finally:
        os._exit(code)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty matrix CSV")
        header = header.rstrip("\n")
        try:
            rows, cols = map(int, header.split(","))
        except ValueError:
            rows = cols = -1
        if min(rows, cols) < 0:
            raise ValueError(f"{path}: bad header {header!r}, expected 'rows,cols'")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: counted below
                body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {_ragged_row(path, cols) or exc}") from None
    if body.shape[0] != rows:
        raise ValueError(f"{path}: header declares {rows} rows, file has {body.shape[0]}")
    if rows == 0:
        return np.empty((0, cols))
    if body.shape[1] != cols:
        raise ValueError(f"{path}: row 0 has {body.shape[1]} values, expected {cols}")
    return body


def _ragged_row(path: Path, cols: int) -> str | None:
    """Name the first body row without ``cols`` values, if there is one."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for i, line in enumerate(line for line in fh if line != "\n"):
            n = line.count(",") + 1
            if n != cols:
                return f"row {i} has {n} values, expected {cols}"
    return None


@contextmanager
def _atomic_open(path: Path):
    """Yield a binary temp file beside ``path`` that replaces it on success."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    with _atomic_open(Path(path)) as fh:
        fh.write(text.encode("utf-8"))


def atomic_write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as strict JSON: a NaN or infinity raises ValueError."""
    atomic_write_text(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")


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
