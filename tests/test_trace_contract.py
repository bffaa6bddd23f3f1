"""The benchmark's traced CLI still sees the calls it wraps.

``perfbench/traced_cli.py`` gets its spans by wrapping module attributes
from outside, such as ``cli.solve_task_basis`` and ``fileio.write_matrix_csv``,
and records counters from their results. A command that stops calling one
of them by that name, or returns a result without the counted fields, loses
its span or breaks the run without any other test failing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import benchmark_rooms
from subtask_forge.lmdp_core import save_lmdp

ROOT = Path(__file__).resolve().parents[1]


def test_traced_solve_records_the_solve_and_the_write(tmp_path):
    L = benchmark_rooms(2, 2, 3)
    save_lmdp(tmp_path / "domain.json", L)
    spans_path, z_path = tmp_path / "spans.json", tmp_path / "Z.csv"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans_path),
         "solve", str(tmp_path / "domain.json"), str(z_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    spans = {span["name"]: span for span in json.loads(spans_path.read_text())["spans"]}
    assert spans["multitask.solve_task_basis"]["tasks"] == L.n_boundary
    assert spans["fileio.write_matrix_csv"]["bytes"] == z_path.stat().st_size
