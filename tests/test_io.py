import numpy as np
import pytest

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
