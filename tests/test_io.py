import os

import numpy as np
import pytest

from conftest import CHILD_FAILURES, inject
from subtask_forge import fileio
from subtask_forge.fileio import (
    atomic_write_json,
    atomic_write_text,
    read_json,
    read_matrix_csv,
    staged_dir,
    write_matrix_csv,
)


def test_matrix_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-12, 12, (7, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert np.array_equal(read_matrix_csv(path), M)


def test_matrix_csv_format(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[0.1, 2.0], [-3.5, 1e-300]]))
    text = path.read_text()
    assert text == "2,2\n0.1,2.0\n-3.5,1e-300\n"


def test_matrix_csv_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_matrix_csv(tmp_path / "m.csv", np.arange(3.0))


@pytest.mark.parametrize("text,match", [
    ("", "empty"),
    ("nonsense\n1.0\n", "bad header"),
    ("2,2\n1.0,2.0\n", "declares 2 rows, file has 1"),
    ("1,3\n1.0,2.0\n", "has 2 values, expected 3"),
])
def test_matrix_csv_read_errors(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_matrix_csv(path)


def reference_csv(M) -> bytes:
    """The matrix CSV format written the plain way: one repr per entry."""
    M = np.asarray(M, dtype=float)
    lines = [f"{M.shape[0]},{M.shape[1]}\n"]
    lines += [",".join(map(repr, row.tolist())) + "\n" for row in M]
    return "".join(lines).encode()


def awkward_matrix(order):
    """Above the fork floor, an odd row count, and every awkward float."""
    cols = 256
    rows = fileio._FORK_MIN_ENTRIES // cols + 1
    rows += 1 - rows % 2
    rng = np.random.default_rng(5)
    M = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    specials = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.5e-310, 1e-300, 1e308, -1e308]
    M.flat[rng.choice(M.size, len(specials) * 20, replace=False)] = specials * 20
    M[-1, -1] = np.nan  # the child's half ends on one
    return np.asarray(M, order=order)


@pytest.mark.parametrize("order", ["C", "F"])
def test_split_writer_matches_reference_bytes(tmp_path, two_cpus, order):
    M = awkward_matrix(order)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert len(two_cpus) == 1
    assert path.read_bytes() == reference_csv(M)
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
    back = read_matrix_csv(path)
    assert len(two_cpus) == 2  # the reader split too
    assert np.array_equal(back, M, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(M))
    assert back.flags.c_contiguous and back.flags.owndata


@pytest.mark.parametrize("order", ["C", "F"])
def test_one_cpu_writer_matches_reference_bytes(tmp_path, monkeypatch, order):
    def no_fork():
        raise AssertionError("one CPU: the writer must not fork")

    monkeypatch.setattr(fileio.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(fileio.os, "fork", no_fork)
    M = awkward_matrix(order)
    write_matrix_csv(tmp_path / "m.csv", M)
    assert (tmp_path / "m.csv").read_bytes() == reference_csv(M)


def test_small_matrix_is_not_split(tmp_path, two_cpus):
    M = np.arange(12.0).reshape(3, 4)
    write_matrix_csv(tmp_path / "m.csv", M)
    assert two_cpus == []
    assert (tmp_path / "m.csv").read_bytes() == reference_csv(M)


@pytest.mark.parametrize("attr,failure", CHILD_FAILURES)
def test_failed_child_half_is_formatted_by_parent(tmp_path, two_cpus, monkeypatch,
                                                  attr, failure):
    inject(monkeypatch, attr, failure)
    M = awkward_matrix("F")
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert len(two_cpus) == (attr != "fork")
    assert path.read_bytes() == reference_csv(M)
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def test_failed_parent_half_leaves_no_litter_and_no_child(tmp_path, two_cpus, monkeypatch):
    real_write_rows = fileio._write_rows

    def parent_fails(fh, M, start, stop):
        if start == 0:  # the parent's half; the child formats from the middle
            fh.write(b"partial")
            raise RuntimeError("simulated failure mid-write")
        real_write_rows(fh, M, start, stop)

    monkeypatch.setattr(fileio, "_write_rows", parent_fails)
    path = tmp_path / "m.csv"
    path.write_text("old")
    with pytest.raises(RuntimeError, match="mid-write"):
        write_matrix_csv(path, awkward_matrix("C"))
    assert len(two_cpus) == 1
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def test_reader_returns_owned_c_contiguous_float64(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.asfortranarray(np.arange(1.0, 7.0).reshape(2, 3)))
    Z = read_matrix_csv(path)
    assert Z.dtype == np.float64 and Z.shape == (2, 3)
    assert Z.flags.c_contiguous and Z.flags.owndata


ACCEPTED = [
    ("2,2\n1.0,2.0\n\n3.0,4.0\n\n", [[1.0, 2.0], [3.0, 4.0]]),  # empty lines skipped
    ("2,2\r\n1.0,2.0\r\n3.0,4.0\r\n", [[1.0, 2.0], [3.0, 4.0]]),  # CRLF
    ("2,2\n1.0,2.0\n3.0,4.0", [[1.0, 2.0], [3.0, 4.0]]),  # no final newline
    ("1,3\n 1.0 ,+2,-3e0\n", [[1.0, 2.0, -3.0]]),  # blanks and signs
    ("0,3\n", np.empty((0, 3))),
]


@pytest.mark.parametrize("text,expected", ACCEPTED)
def test_matrix_csv_accepted_syntax(tmp_path, text, expected):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    Z = read_matrix_csv(path)
    assert Z.shape == np.shape(expected) and np.array_equal(Z, expected)


REJECTED = [
    ("1,2\n1_0,2.0\n", "could not convert string '1_0'"),  # float() takes it
    ("1,2\n\uff11,2.0\n", "could not convert string"),  # fullwidth digit one
    ("1,2\n1.0, \n", "could not convert string"),
    ("2,2\n1.0,2.0\n3.0\n", "row 1 has 1 values, expected 2"),
    ("2,2\n1.0,2.0\n \n", "row 1 has 1 values, expected 2"),  # blanks are no empty line
    ("-1,2\n", "bad header"),
]


@pytest.mark.parametrize("text,match", REJECTED)
def test_matrix_csv_rejected_syntax(tmp_path, text, match):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=match):
        read_matrix_csv(path)


# ---------------------------------------------------------------------------
# the reader split between this process and a forked child
# ---------------------------------------------------------------------------


#: Rows of plain body put before a syntax case, so that the file is above the
#: fork floor and the split point lies in them, before the case's oddity.
PAD_ROWS = fileio._FORK_MIN_ENTRIES // 2 + 1


def padded(text: str) -> bytes:
    """``text`` with ``PAD_ROWS`` rows of its column count inserted after the
    header, and the header's row count raised to match."""
    header, _, body = text.partition("\n")
    line_end = "\r\n" if header.endswith("\r") else "\n"
    rows, cols = map(int, header.rstrip("\r").split(","))
    if rows < 0:  # a bad header stays as it is
        return text.encode()
    pad = "".join(",".join(f"{i}.{j}" for j in range(cols)) + "\n" for i in range(PAD_ROWS))
    return f"{rows + PAD_ROWS},{cols}{line_end}{pad}{body}".encode()


def split_read(path):
    """The reader's array for ``path``, or its message."""
    try:
        return read_matrix_csv(path)
    except ValueError as exc:
        return str(exc)


def one_cpu_read(monkeypatch, path):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return split_read(path)


def assert_same_read(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.shape == expected.shape and np.array_equal(got, expected)


@pytest.mark.parametrize("text", [text for text, _ in ACCEPTED + REJECTED])
def test_split_reader_matches_one_cpu_on_each_syntax_case(tmp_path, two_cpus, monkeypatch,
                                                         text):
    """Every accepted and rejected syntax case above, with its oddity after
    the split point, reads as on one CPU: the same array or message."""
    path = tmp_path / "m.csv"
    path.write_bytes(padded(text))
    expected = one_cpu_read(monkeypatch, path)
    assert_same_read(split_read(path), expected)
    assert len(two_cpus) == (not text.startswith("-"))


def test_split_reader_handles_cr_line_ends(tmp_path, two_cpus, monkeypatch):
    path = tmp_path / "m.csv"
    # CR-only throughout: no newline to split at, so one process reads it
    path.write_bytes(padded("2,2\n1.0,2.0\n3.0,4.0\n").replace(b"\n", b"\r"))
    expected = one_cpu_read(monkeypatch, path)
    assert expected.shape == (PAD_ROWS + 2, 2)
    assert_same_read(split_read(path), expected)
    assert two_cpus == []
    # CR-only rows in the child's half only: they count as rows there too
    path.write_bytes(padded("3,2\n1.0,2.0\r3.0,4.0\r5.0,6.0\n"))
    expected = one_cpu_read(monkeypatch, path)
    assert expected.shape == (PAD_ROWS + 3, 2)
    assert_same_read(split_read(path), expected)
    assert len(two_cpus) == 1
    # a CR inside the header line ends the header there for the serial reader
    path.write_bytes(f"{PAD_ROWS}\r,2\n".encode() + padded("0,2\n").partition(b"\n")[2])
    expected = one_cpu_read(monkeypatch, path)
    assert expected == f"{path}: bad header '{PAD_ROWS}', expected 'rows,cols'"
    assert split_read(path) == expected
    assert len(two_cpus) == 1  # no split: the header line is not plain


@pytest.mark.parametrize("off_by", [-1, 1])
def test_split_reader_header_one_row_off_with_blank_lines_in_both_halves(
        tmp_path, two_cpus, monkeypatch, off_by):
    rows, cols = 2 * PAD_ROWS, 2
    lines = [f"{i}.5,{i}.25\n" + ("\n" if i % 997 == 0 else "") for i in range(rows)]
    path = tmp_path / "m.csv"
    path.write_bytes(f"{rows + off_by},{cols}\n{''.join(lines)}".encode())
    expected = one_cpu_read(monkeypatch, path)
    assert expected == f"{path}: header declares {rows + off_by} rows, file has {rows}"
    assert split_read(path) == expected
    assert len(two_cpus) == 1


def _parent_half_fails(real):
    parent = os.getpid()

    def parse_range(*args):
        if os.getpid() == parent:
            raise RuntimeError("simulated failure in the parent's half")
        return real(*args)

    return parse_range


@pytest.mark.parametrize("attr,failure", CHILD_FAILURES + [("_parse_range", None)])
def test_failed_split_read_is_read_serially(tmp_path, two_cpus, monkeypatch, attr, failure):
    M = np.random.default_rng(2).standard_normal((300, 256))
    path = tmp_path / "m.csv"
    path.write_bytes(reference_csv(M))
    if failure is None:
        failure = _parent_half_fails(fileio._parse_range)
    inject(monkeypatch, attr, failure)
    back = read_matrix_csv(path)
    assert len(two_cpus) == (attr != "fork")
    assert np.array_equal(back, M)
    # the conftest fixtures fail the test if a child or a descriptor is left


def test_atomic_write_replaces_and_leaves_no_litter(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(path, "new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_creates_parents(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(path, "x")
    assert path.read_text() == "x"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_writer_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError, match="JSON compliant"):
        atomic_write_json(tmp_path / "o.json", {"x": [1.0, value]})
    assert list(tmp_path.iterdir()) == []


def test_json_roundtrip(tmp_path):
    path = tmp_path / "o.json"
    obj = {"a": [1, 2.5], "b": None, "c": "s"}
    atomic_write_json(path, obj)
    assert read_json(path) == obj
    assert path.read_text().endswith("\n")


def test_staged_dir_success_replaces_old_contents(tmp_path):
    final = tmp_path / "out"
    final.mkdir()
    (final / "stale.txt").write_text("stale")
    with staged_dir(final) as stage:
        (stage / "fresh.txt").write_text("fresh")
    assert (final / "fresh.txt").read_text() == "fresh"
    assert not (final / "stale.txt").exists()
    # no staging directory left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_staged_dir_failure_keeps_previous_output(tmp_path):
    final = tmp_path / "out"
    final.mkdir()
    (final / "keep.txt").write_text("keep")
    with pytest.raises(RuntimeError):
        with staged_dir(final) as stage:
            (stage / "half.txt").write_text("partial")
            raise RuntimeError("simulated failure")
    assert (final / "keep.txt").read_text() == "keep"
    assert not (final / "half.txt").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_staged_dir_fresh_target(tmp_path):
    final = tmp_path / "new_out"
    with staged_dir(final) as stage:
        (stage / "f.txt").write_text("x")
    assert (final / "f.txt").read_text() == "x"


def test_staged_dir_failed_rename_keeps_previous_output(tmp_path, monkeypatch):
    final = tmp_path / "out"
    final.mkdir()
    (final / "keep.txt").write_text("keep")

    def refuse(src, dst):
        raise OSError("simulated rename failure")

    with pytest.raises(OSError, match="simulated"):
        with staged_dir(final) as stage:
            (stage / "fresh.txt").write_text("fresh")
            monkeypatch.setattr(fileio.os, "replace", refuse)
    monkeypatch.undo()
    assert (final / "keep.txt").read_text() == "keep"
    assert not (final / "fresh.txt").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
