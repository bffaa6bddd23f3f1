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
A matrix whose header declares at least ``_FORK_MIN_ENTRIES`` entries,
read by a process that may run on more than one CPU, is parsed on two: a
forked child parses the bytes after the first newline past the middle of
the body while this process parses the bytes before it. Unless both halves
parse and their shapes add up to the header's, the whole file is read
again in one process, which decides every failure and its message. So
every file gives the same array, or the same error, either way.

The writer formats rows a block at a time into a temp file that replaces
the target once complete, so the whole text is never held at once. A
matrix of at least ``_FORK_MIN_ENTRIES`` entries, written by a process
that may run on more than one CPU, is formatted on two: a forked child
formats the second half of the rows while this process formats the first.
The bytes are the same either way.

:func:`split_work` holds the one fork protocol that the reader, the writer
and ``factorize``'s restarts share.
"""

from __future__ import annotations

import io
import json
import os
import pickle
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
#: against 68 ms. A 125^2 taxi basis stays in one process. The reader
#: splits its parse, and ``factorize`` its NMF restarts, from the same floor.
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


def split_work(first, second, redo=None):
    """``(first(), second())``, with ``second`` run by a forked child.

    This process calls ``first`` while the child calls ``second`` and pickles
    its result back through a pipe. If the fork or the child fails, or what
    it sent cannot be read, this process calls ``redo`` (default ``second``)
    in its place, so the result and any error never depend on the child. If
    ``first`` raises, the child is killed and reaped before the error
    propagates. The child leaves by ``os._exit`` on every path, so it never
    flushes this process's buffers or runs its cleanup.
    """
    rfd, wfd = os.pipe()
    pid = None
    try:
        with suppress(OSError):  # no process to spare: redo the second half here
            pid = os.fork()
        if pid == 0:
            _child(wfd, second)
        os.close(wfd)
        wfd = None
        mine = first()
        with open(rfd, "rb", closefd=False) as fh:
            try:
                theirs, sent = pickle.load(fh), True
            except (EOFError, pickle.UnpicklingError):  # no child, or one cut short
                sent = False
            fh.read()  # until the child exits; it may still be writing
        child_ok = pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        pid = None
        return mine, (theirs if sent and child_ok else (redo or second)())
    finally:
        if pid is not None:  # failed before reaping the child: stop it first
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(rfd)
        if wfd is not None:
            os.close(wfd)


def _child(wfd: int, work):
    """In the forked child: pickle ``work()`` into ``wfd``, then exit."""
    code = 1
    try:
        with open(wfd, "wb", closefd=False) as out:
            pickle.dump(work(), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _write_rows(fh, M: np.ndarray, start: int, stop: int) -> None:
    """Append rows ``start:stop`` of M to the binary file ``fh``."""
    step = max(1, _BLOCK_ENTRIES // max(M.shape[1], 1))
    for i in range(start, stop, step):
        block = M[i:min(i + step, stop)].tolist()
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in block).encode())


def _write_rows_forked(fh, M: np.ndarray, directory: Path) -> None:
    """Append every row of M to ``fh``, the second half formatted by a child.

    Through :func:`split_work`: the child streams its rows into a sibling
    ``.part`` file while this process formats the first half; the part is
    then appended. Should the child fail, this process formats the second
    half itself. The part file is removed on every path.
    """
    rows = M.shape[0]
    half = (rows + 1) // 2
    fd, part = tempfile.mkstemp(dir=directory, prefix=".", suffix=".part")
    try:
        _, child_wrote = split_work(lambda: _write_rows(fh, M, 0, half),
                                    lambda: _write_part(fd, M, half, rows),
                                    lambda: _write_rows(fh, M, half, rows))
        if child_wrote:
            with open(fd, "rb", closefd=False) as src:
                src.seek(0)  # the child shared this descriptor's offset
                shutil.copyfileobj(src, fh)
    finally:
        os.close(fd)
        os.unlink(part)


def _write_part(fd: int, M: np.ndarray, start: int, stop: int) -> bool:
    """Write rows ``start:stop`` of M to ``fd``. Only Python formatting and
    file writes run here, no BLAS."""
    with open(fd, "wb", closefd=False) as out:
        _write_rows(out, M, start, stop)
    return True


def read_matrix_csv(path: str | Path) -> np.ndarray:
    path = Path(path)
    body = _read_split(path) if _spare_cpu() else None
    return body if body is not None else _read_serial(path)


def _header(line: str) -> tuple[int, int]:
    """``rows, cols`` of a header line without its line end; ValueError if bad."""
    rows, cols = map(int, line.split(","))
    if min(rows, cols) < 0:
        raise ValueError("negative size")
    return rows, cols


def _read_serial(path: Path) -> np.ndarray:
    """The reader of record: every failure and its message are decided here."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty matrix CSV")
        header = header.rstrip("\n")
        try:
            rows, cols = _header(header)
        except ValueError:
            raise ValueError(f"{path}: bad header {header!r}, expected 'rows,cols'") from None
        try:
            body = _parse(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {_ragged_row(path, cols) or exc}") from None
    if body.shape[0] != rows:
        raise ValueError(f"{path}: header declares {rows} rows, file has {body.shape[0]}")
    if rows == 0:
        return np.empty((0, cols))
    if body.shape[1] != cols:
        raise ValueError(f"{path}: row 0 has {body.shape[1]} values, expected {cols}")
    return body


def _parse(text) -> np.ndarray:
    """The rows of a text stream, parsed by numpy's C parser."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows: counted by the caller
        return np.loadtxt(text, delimiter=",", comments=None, ndmin=2)


#: Longest header line the split reader looks at; a longer one is left to
#: the serial reader.
_HEADER_BYTES = 64


def _read_split(path: Path) -> np.ndarray | None:
    """The body parsed on two CPUs, or None where only the serial reader may decide.

    Only a matrix of at least ``_FORK_MIN_ENTRIES`` entries, by its header,
    is split, at the first newline from the middle of the body on. Through
    :func:`split_work`, a forked child parses the bytes after that newline
    while this process parses the bytes before it, each half as a text
    stream of exactly its own byte range (a newline never splits a CRLF pair
    or a UTF-8 character). The halves are accepted only if both have the
    header's column count and their rows add up to the header's row count.
    Anything else, a failed half or child included, returns None.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_BYTES)
        text = line.removesuffix(b"\n").removesuffix(b"\r")
        if not line.endswith(b"\n") or b"\r" in text:
            return None
        try:
            rows, cols = _header(text.decode("utf-8"))
        except ValueError:
            return None
        if rows * cols < _FORK_MIN_ENTRIES:
            return None
        end = fh.seek(0, os.SEEK_END)
        split = _line_start(fh, (len(line) + end) // 2)
    if split is None or split == end:
        return None
    try:
        mine, theirs = split_work(lambda: _parse_range(path, len(line), split),
                                  lambda: _parse_range(path, split, end), lambda: None)
    except Exception:  # a failed half, whatever the error: the serial reader decides
        return None
    if (theirs is None or mine.shape[1] != cols or theirs.shape[1] != cols
            or mine.shape[0] + theirs.shape[0] != rows):
        return None
    return np.concatenate((mine, theirs))


def _line_start(fh, pos: int) -> int | None:
    """Offset just past the first newline at or after ``pos``, or None."""
    fh.seek(pos)
    while chunk := fh.read(_BLOCK_ENTRIES):
        i = chunk.find(b"\n")
        if i >= 0:
            return pos + i + 1
        pos += len(chunk)
    return None


class _ByteRange(io.RawIOBase):
    """Bytes ``start:stop`` of a file, read without moving a shared offset."""

    def __init__(self, fd: int, start: int, stop: int):
        self.fd, self.pos, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = min(len(buf), self.stop - self.pos)
        if n <= 0:
            return 0
        got = os.preadv(self.fd, [memoryview(buf)[:n]], self.pos)
        self.pos += got
        return got


def _parse_range(path: Path, start: int, stop: int) -> np.ndarray:
    """Rows of bytes ``start:stop`` of ``path``, read as the serial reader reads text."""
    with open(path, "rb") as fh, io.TextIOWrapper(
            io.BufferedReader(_ByteRange(fh.fileno(), start, stop)), encoding="utf-8") as text:
        return _parse(text)


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
