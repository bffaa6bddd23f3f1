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
read by a process that may run on more than one CPU, is parsed on two, split
at the writer's row: a forked child parses the lines after the first half
of the header's rows while this process parses those lines. Unless each
half has exactly the shape the header gives it, the whole file is read
again in one process, which decides every failure and its message. So
every file gives the same array, or the same error, either way.

The writer takes rows from an array or from a :class:`Spill`, a matrix
kept in an unlinked temp file, about ``_READ_ENTRIES`` entries at a time.
It writes the ``repr`` of ``_WRITE_ENTRIES`` entries at a time, by
:mod:`floatrepr`, into a temp file that replaces the target once complete,
so no text beyond that, nor from a spill the whole matrix, is ever held.
A matrix with rows but no columns is rejected: its rows would be empty
lines, which the reader skips. A matrix of at least ``_FORK_MIN_ENTRIES``
entries, written by a process that may run on more than one CPU, is
formatted on two: a forked child formats the second half of the rows
while this process formats the first; a spill's child reads its rows from
the same descriptor. The bytes are the same either way.

:func:`split_work` holds the one fork protocol that the reader, the writer
and ``factorize``'s restarts share.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import mmap
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
#: formats. Measured on 2 cores in a process holding 61 MB: formatting
#: costs 0.45-0.7 us an entry; a fork, ``os._exit`` and wait cost 3-7 ms,
#: and appending the part about 0.5 ms per MB. A random 128^2 matrix wrote
#: in 11.8 ms split against 11.2 ms in one process, 256^2 (this floor) in
#: 28.7 against 31.1 ms, 1600^2 in 0.73 against 1.18 s. A 125^2 taxi basis
#: stays in one process. The reader splits its parse from the same floor,
#: where it still gains more.
_FORK_MIN_ENTRIES = 1 << 16

#: Entries formatted per write, across rows or within one. The formatter's
#: numpy work arrays peak near 160 bytes an entry; fewer entries a write
#: would pay numpy's cost per call more often.
_WRITE_ENTRIES = 1 << 12

#: Entries the writer takes from its matrix at a time: whole rows, about
#: this many, or one wider row. From a spill that is one ``os.preadv`` per
#: stored block of columns, into about 0.5 MB.
_READ_ENTRIES = 1 << 16


class Spill:
    """A float matrix of ``shape`` kept in an unlinked temp file in ``directory``.

    It is stored a block of whole columns at a time, first to last, as
    ``spill[:, first:stop] = block``: each block is written as it comes, C
    ordered, at 8 n ``first`` bytes. It is read back by row ranges,
    ``spill[start:stop]``, a C-ordered array taken with one ``os.preadv`` per
    stored block. Reads never move a shared offset, so a forked child may
    read rows too. The file has no name, so nothing is left behind however
    the process ends; leaving the ``with`` block frees it.
    """

    def __init__(self, shape: tuple[int, int], directory: str | Path):
        self.shape = tuple(shape)
        Path(directory).mkdir(parents=True, exist_ok=True)
        self._file = tempfile.TemporaryFile(dir=directory)
        self._stops = [0]  # column bounds of the stored blocks

    def __setitem__(self, key, block) -> None:
        rows, cols = key
        first, stop, step = cols.indices(self.shape[1])
        if rows != slice(None) or step != 1 or first != self._stops[-1]:
            raise ValueError("a spill stores blocks of whole columns, first to last")
        block = np.ascontiguousarray(block, dtype=float)
        if block.shape != (self.shape[0], stop - first):
            raise ValueError(f"block has shape {block.shape}, expected "
                             f"{(self.shape[0], stop - first)}")
        if os.pwrite(self._file.fileno(), block, 8 * block.shape[0] * first) != block.nbytes:
            raise OSError("short write to the spill file")
        self._stops.append(stop)

    def __getitem__(self, rows: slice) -> np.ndarray:
        n, cols = self.shape
        start, stop, step = rows.indices(n)
        if step != 1 or self._stops[-1] != cols:
            raise ValueError("a spill reads ranges of rows once every column is stored")
        out = np.empty((max(stop - start, 0), cols))
        for first, last in zip(self._stops, self._stops[1:]):
            part = np.empty((len(out), last - first))
            if os.preadv(self._file.fileno(), [part], 8 * (n * first + start * part.shape[1])) \
                    != part.nbytes:
                raise OSError("the spill file is shorter than its blocks")
            out[:, first:last] = part
        return out

    def __enter__(self) -> Spill:
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()


def write_matrix_csv(path: str | Path, matrix) -> None:
    """Write an array, or a complete :class:`Spill`, as a matrix CSV."""
    M = matrix if isinstance(matrix, Spill) else np.asarray(matrix, dtype=float)
    if len(M.shape) != 2:
        raise ValueError(f"matrix CSV needs a 2-D array, got shape {M.shape}")
    rows, cols = M.shape
    if rows and not cols:
        raise ValueError(f"matrix CSV needs a column per row, got shape {M.shape}")
    path = Path(path)
    with _atomic_open(path) as fh:
        fh.write(f"{rows},{cols}\n".encode())
        if rows * cols >= _FORK_MIN_ENTRIES and _spare_cpu():
            _write_rows_forked(fh, M, path.parent)
        else:
            _write_rows(fh, M, 0, rows)


def _spare_cpu() -> bool:
    """True if this process may run on more than one CPU (Linux only)."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


@functools.cache
def _blas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None if not found."""
    import ctypes  # loaded by numpy already

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if getter is not None and hasattr(lib, name):
                setter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextmanager
def one_blas_thread():
    """Run the body with the loaded OpenBLAS at one thread; yields whether it is.

    OpenBLAS splits its LU (behind ``np.linalg.inv``) and its matrix
    products by its thread count, and their bits with them, so a result
    computed here has the same bits on any number of CPUs: every dense
    solve, every NMF fit and a derived level's products run here. Two split
    processes at two threads each would also oversubscribe two cores.
    Without a thread setter among the loaded libraries the body runs at the
    default count and this yields False. The count is restored on every
    path.
    """
    threads = _blas_threads()
    if threads is None:
        yield False
        return
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(before)


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


def _write_rows(fh, M, start: int, stop: int) -> None:
    """Append rows ``start:stop`` of M, an array or a spill, to the binary file ``fh``."""
    from .floatrepr import repr_text  # compiled only where a matrix is written
    cols = max(M.shape[1], 1)
    take = max(1, _READ_ENTRIES // cols)
    for i in range(start, stop, take):
        rows = M[i:min(i + take, stop)]
        for first in range(0, rows.size, _WRITE_ENTRIES):
            fh.write(repr_text(rows.flat[first:first + _WRITE_ENTRIES], first, cols))


def _write_rows_forked(fh, M, directory: Path) -> None:
    """Append every row of M to ``fh``, the second half formatted by a child.

    Through :func:`split_work`: the child streams rows ``(rows + 1) // 2``
    on into an unlinked temp file in ``directory`` while this process
    formats the first half; the part is then appended. Should the child
    fail, this process formats the second half itself. The part has no
    name, so nothing is left behind however the process ends.
    """
    rows = M.shape[0]
    half = (rows + 1) // 2
    with tempfile.TemporaryFile(dir=directory) as part:
        _, child_wrote = split_work(lambda: _write_rows(fh, M, 0, half),
                                    lambda: _write_part(part.fileno(), M, half, rows),
                                    lambda: _write_rows(fh, M, half, rows))
        if child_wrote:
            part.seek(0)  # the child shared this descriptor's offset
            shutil.copyfileobj(part, fh)


def _write_part(fd: int, M, start: int, stop: int) -> bool:
    """Write rows ``start:stop`` of M to ``fd``. Only Python formatting and
    file writes run here, no BLAS."""
    with open(fd, "wb", closefd=False) as out:
        _write_rows(out, M, start, stop)
    return True


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """The matrix of a matrix CSV. Every failure and its message are decided
    by the parse in this process; :func:`_read_split` only ever speeds up a
    file it would accept."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty matrix CSV")
        header = header.rstrip("\n")
        try:
            rows, cols = map(int, header.split(","))
            if min(rows, cols) < 0:
                raise ValueError("negative size")
        except ValueError:
            raise ValueError(f"{path}: bad header {header!r}, expected 'rows,cols'") from None
        # each entry takes a value and a separator, at least 2 bytes: a
        # header that declares more than the file can hold is not allocated
        split = rows >= 2 and _FORK_MIN_ENTRIES <= rows * cols <= os.fstat(fh.fileno()).st_size // 2
        body = _read_split(path, rows, cols) if split and _spare_cpu() else None
        if body is None:
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


def _parse(text, skip: int = 0) -> np.ndarray:
    """The rows of a text stream after its first ``skip`` lines, parsed by
    numpy's C parser."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows: counted by the caller
        return np.loadtxt(text, delimiter=",", comments=None, ndmin=2, skiprows=skip)


def _read_split(path: Path, rows: int, cols: int) -> np.ndarray | None:
    """The body of a ``rows`` x ``cols`` matrix parsed on two CPUs, or None
    where only the serial parse may decide.

    The body is split at the writer's row ``half = (rows + 1) // 2``.
    Through :func:`split_work`, this process parses the ``half`` lines after
    the header while a forked child parses every line after those, each as
    the serial parse reads text. Each half is accepted only if it has
    exactly the shape the header gives it, ``(half, cols)`` and ``(rows -
    half, cols)``: an empty line among the first ``half`` leaves this
    process short, so such a file is read serially. Anything else, a failed
    half or child included, returns None. The result is allocated once: this
    process copies its half in, then the child's from a shared anonymous
    mapping made before the fork; only whether it fitted is pickled back.
    Pickling the child's half back instead gave the same bytes and time but
    raised large-io ``factor``'s peak RSS from 68.0 to 72.7 MB (8 runs each).
    """
    half = (rows + 1) // 2
    out = np.empty((rows, cols))

    def first() -> None:
        mine = _parse_rows(path, 1, half)
        if mine.shape != (half, cols):
            raise ValueError("the first half does not fit the header")
        out[:half] = mine

    def second() -> bool:
        theirs = _parse_rows(path, 1 + half)
        if theirs.shape != (rows - half, cols):
            return False
        np.frombuffer(shared)[:] = theirs.ravel()
        return True

    with mmap.mmap(-1, 8 * (rows - half) * cols) as shared:
        try:
            _, sent = split_work(first, second, lambda: False)
        except Exception:  # a failed half, whatever the error: the serial parse decides
            return None
        if not sent:
            return None
        out[half:] = np.frombuffer(shared).reshape(rows - half, cols)
    return out


def _parse_rows(path: Path, skip: int, lines: int | None = None) -> np.ndarray:
    """Rows of the ``lines`` lines (default: all) after the first ``skip`` of
    ``path``, read as the serial parse reads text.

    Lines, not rows, bound both ends: ``np.loadtxt``'s ``max_rows`` would
    not count empty lines, so a header that overstates the rows by the empty
    lines in the first half would have both halves read the same rows.
    """
    with open(path, encoding="utf-8") as fh:
        return _parse(fh if lines is None else itertools.islice(fh, skip + lines), skip)


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
    """Yield a binary temp file beside ``path`` that replaces it on success,
    made with mode 0666 so that the umask decides its mode, as ``open``'s."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
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
    """Parse a strict JSON file: NaN, Infinity, or a number too large for a
    float (1e999) raises ValueError naming the file."""
    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"{path}: got {token}, but JSON numbers must be finite")
        return value

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=finite, parse_float=finite)


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
