"""Start-up cost of the CLI: solver modules load only where they are called.

Each CLI command runs in a fresh process, so everything the CLI imports at
module level is paid by every command. These tests import the CLI in a clean
interpreter and check which scipy solver modules that pulled in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.optimize", "scipy.sparse.linalg")

PRELUDE = f"""
import json, sys
HEAVY = {HEAVY!r}
def heavy():
    return sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in HEAVY))
"""


def run_cold(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; it prints one JSON object last."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_solver_module():
    out = run_cold("""
import subtask_forge.cli
print(json.dumps({"heavy": heavy()}))
""")
    assert out["heavy"] == []


def test_solvers_work_after_cold_import():
    out = run_cold("""
import numpy as np
import subtask_forge.cli
from subtask_forge import (
    NmfOptions, RingSpec, build_ring, build_uniform_task_basis, compose, nmf,
    solve_task_basis, subtask_distance,
)
before = heavy()
L = build_ring(RingSpec(8))
Q = build_uniform_task_basis(L)
Z = solve_task_basis(L, Q)
w, z = compose(Q, Z, 2.0 * Q[:, 3])
F = nmf(Z, 2, 1.0, NmfOptions(max_iter=50, restarts=2, seed=0))
print(json.dumps({
    "before": before,
    "after": heavy(),
    "w_matches": bool(np.allclose(w, 2.0 * np.eye(Q.shape[1])[3])),
    "z_matches": bool(np.allclose(z, 2.0 * Z[:, 3])),
    "self_distance": subtask_distance(F, F),
}))
""")
    assert out["before"] == []
    assert {"scipy.optimize", "scipy.sparse.linalg"} <= set(out["after"])
    assert out["w_matches"]
    assert out["z_matches"]
    assert out["self_distance"] < 1e-12
