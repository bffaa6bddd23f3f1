"""In-process timings of the basis solve and of one NMF sweep.

Usage: python perfbench/microbench.py DOMAIN_JSON Z_CSV K BETA SWEEPS SEED

Prints one JSON object:
- ``solve_warm_s``: median of three ``solve_task_basis`` calls after one
  untimed warm-up call (the CLI only ever pays the cold first call);
- ``sweep_s``: median over three repeats of
  (nmf(max_iter=SWEEPS, tol=0, restarts=1) - nmf(max_iter=0)) / sweeps run,
  which leaves out initialization, normalization and the baseline divergence.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from subtask_forge.factorize import NmfOptions, nmf
from subtask_forge.fileio import read_matrix_csv
from subtask_forge.lmdp_core import load_lmdp
from subtask_forge.multitask import build_uniform_task_basis, solve_task_basis

REPEATS = 3


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def main(argv: list[str]) -> None:
    domain_path, z_path = argv[0], argv[1]
    k, beta, sweeps, seed = int(argv[2]), float(argv[3]), int(argv[4]), int(argv[5])

    L = load_lmdp(domain_path)
    Q = build_uniform_task_basis(L)
    solve_task_basis(L, Q)
    solve_warm = [_timed(lambda: solve_task_basis(L, Q))[0] for _ in range(REPEATS)]

    Z = read_matrix_csv(z_path)
    idle = NmfOptions(max_iter=0, tol=0.0, restarts=1, seed=seed)
    busy = NmfOptions(max_iter=sweeps, tol=0.0, restarts=1, seed=seed)
    nmf(Z, k, beta, busy)
    per_sweep = []
    for _ in range(REPEATS):
        t_idle, _ = _timed(lambda: nmf(Z, k, beta, idle))
        t_busy, F = _timed(lambda: nmf(Z, k, beta, busy))
        per_sweep.append((t_busy - t_idle) / max(F.iterations, 1))
    print(json.dumps({
        "solve_warm_s": statistics.median(solve_warm),
        "sweep_s": statistics.median(per_sweep),
        "shape": list(Z.shape),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
