#!/usr/bin/env python3
"""End-to-end benchmark of the subtask-forge CLI pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rooms-factor --seed 1 --seconds 25 --trace 0

One client in a closed loop: the workload's CLI commands run one after
another, each in a fresh ``python -m subtask_forge.cli`` child with
``PYTHONPATH=src``, and the sequence repeats until ``--seconds`` have passed
(at least twice, so output digests can be compared). Every command's output
is checked. ``--seed`` is passed to every command's ``--seed``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs pairs of one untraced and one traced sequence, the
traced one through ``traced_cli.py``, then ``microbench.py`` once, and
reports the per-layer metrics named there. Either way the full report
(every metric with median, quartiles, sample count and samples, the checks,
the environment) is printed as the second-to-last line and saved under
``.bench_work/reports/``; the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.

``--workload smoke`` runs every command and check on a tiny domain in
seconds; it is the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".bench_work")
PIPE_DIR = WORK / "pipeline"
VERSION_RUNS = 5
MIN_PIPELINES = 2
CHILD_TIMEOUT_S = 120.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "BLIS_NUM_THREADS")

E2E_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "fit_divergence": "1", "failed_frac": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUBTASK_FORGE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv: list[str]) -> Child:
    """Run argv to completion; wall time from spawn to reap, max RSS via wait4."""
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"))


def cli_argv(args: list[str], spans_path: Path | None = None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "subtask_forge.cli", *args]
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]


# ---------------------------------------------------------------------------
# Output checks: each returns (problems, observations)
# ---------------------------------------------------------------------------


def _header(path: Path) -> tuple[int, int]:
    with open(path, encoding="utf-8") as fh:
        rows, cols = fh.readline().split(",")
    return int(rows), int(cols)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_build(wl: Workload, d: Path, stdout: str):
    problems: list = []
    words = stdout.split()
    counts = (int(words[-5]), int(words[-3])) if len(words) >= 5 else None
    _expect(problems, counts == wl.z_shape,
            f"build reported {counts} interior/boundary states, expected {wl.z_shape}")
    return problems, {}


def check_solve(wl: Workload, d: Path, stdout: str):
    problems: list = []
    shape = _header(d / "Z.csv")
    _expect(problems, shape == wl.z_shape, f"Z.csv is {shape}, expected {wl.z_shape}")
    return problems, {}


def check_factor(wl: Workload, d: Path, stdout: str):
    problems: list = []
    fact = d / "fact"
    n, m = wl.z_shape
    k = wl.factor_k
    _expect(problems, _header(fact / "D.csv") == (n, k), "D.csv has the wrong shape")
    _expect(problems, _header(fact / "W.csv") == (k, m), "W.csv has the wrong shape")
    meta = json.loads((fact / "meta.json").read_text(encoding="utf-8"))
    fit = float(meta["normalized_divergence"])
    _expect(problems, meta["k"] == k and meta["beta"] == wl.factor_beta,
            f"meta.json has k={meta['k']} beta={meta['beta']}")
    _expect(problems, 0.0 < fit < 1.0, f"normalized divergence {fit} outside (0, 1)")
    digests = {name: _digest(fact / name) for name in ("D.csv", "W.csv", "meta.json")}
    return problems, {"fit_divergence": fit, "digests": digests}


def check_select_k(wl: Workload, d: Path, stdout: str):
    problems: list = []
    lines = (d / "curve.csv").read_text(encoding="utf-8").splitlines()
    _expect(problems, lines[0] == "k,f" and len(lines) == wl.kmax + 1,
            f"k-curve has {len(lines) - 1} rows, expected {wl.kmax}")
    word = stdout.strip().rsplit(" ", 1)[-1]
    # Observed, not asserted: the literal elbow rule is a known failure
    # (acceptance criterion 5) and must not be retuned here.
    return problems, {"k_star": None if word == "none" else int(word)}


def check_purity(wl: Workload, d: Path, stdout: str):
    problems: list = []
    purity = json.loads((d / "purity.json").read_text(encoding="utf-8"))["purity"]
    floor = wl.purity_min if wl.purity_min is not None else 0.0
    _expect(problems, floor <= purity <= 1.0, f"purity {purity} below {floor}")
    return problems, {"purity": purity}


def check_doorways(wl: Workload, d: Path, stdout: str):
    problems: list = []
    lines = (d / "g.csv").read_text(encoding="utf-8").splitlines()
    _expect(problems, lines[0] == "state,g" and len(lines) == wl.z_shape[0] + 1,
            f"g.csv has {len(lines) - 1} rows, expected {wl.z_shape[0]}")
    return problems, {}


def check_hierarchy(wl: Workload, d: Path, stdout: str):
    problems: list = []
    top = json.loads((d / "stack" / "top.json").read_text(encoding="utf-8"))
    _expect(problems, top["n_interior"] == wl.top_states,
            f"top.json has {top['n_interior']} interior states, expected {wl.top_states}")
    return problems, {}


def check_render(wl: Workload, d: Path, stdout: str):
    problems: list = []
    svgs = list((d / "svg").glob("*.svg"))
    _expect(problems, len(svgs) == wl.factor_k,
            f"render wrote {len(svgs)} SVGs, expected {wl.factor_k}")
    return problems, {}


CHECKS = {
    "build": check_build, "solve": check_solve, "factor": check_factor,
    "select_k": check_select_k, "purity": check_purity,
    "doorways": check_doorways, "hierarchy": check_hierarchy,
    "render": check_render,
}


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


@dataclass
class Command:
    command: str
    wall_s: float
    rss_mb: float
    problems: list
    spans: dict | None = None


@dataclass
class Pipeline:
    commands: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return bool(self.commands) and all(not c.problems for c in self.commands)


def run_pipeline(wl: Workload, seed: int, traced: bool) -> Pipeline:
    """Run the workload's command sequence in a fresh directory, checking each."""
    shutil.rmtree(PIPE_DIR, ignore_errors=True)
    PIPE_DIR.mkdir(parents=True)
    (PIPE_DIR / "spec.json").write_text(json.dumps(wl.spec), encoding="utf-8")
    fields = {"dir": str(PIPE_DIR), "seed": str(seed)}
    out = Pipeline()
    for i, step in enumerate(wl.steps):
        args = [a.format(**fields) for a in step.argv]
        spans_path = PIPE_DIR / f"spans-{i}.json" if traced else None
        child = run_child(cli_argv(args, spans_path))
        if child.code != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            problems = [f"{step.command} exited {child.code}: {tail[0]}"]
        else:
            try:
                problems, observed = CHECKS[step.check](wl, PIPE_DIR, child.stdout)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems, observed = [f"{step.check} output unreadable: {exc}"], {}
            out.observed.update(observed)
        spans = None
        if spans_path is not None and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        out.commands.append(Command(step.command, child.wall_s, child.rss_mb,
                                    problems, spans))
        if problems:
            break
    return out


def measure_setup() -> Command:
    """Time one no-op ``--version`` run: interpreter start plus package import."""
    child = run_child(cli_argv(["--version"]))
    ok = child.code == 0 and "version" in child.stdout
    return Command("version", child.wall_s, child.rss_mb,
                   [] if ok else [f"--version exited {child.code}"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def summarize(samples: list[float], unit: str) -> dict:
    values = sorted(float(v) for v in samples)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "samples": [float(v) for v in samples]}


def end_to_end(pipelines: list[Pipeline], setup: list[float], failed_frac: float) -> dict:
    done = [p for p in pipelines if p.complete]
    samples: dict[str, list] = {
        "pipeline_s": [sum(c.wall_s for c in p.commands) for p in done],
        "peak_rss_mb": [max(c.rss_mb for c in p.commands) for p in done],
        "fit_divergence": [p.observed["fit_divergence"] for p in done],
        "setup_s": setup,
        "failed_frac": [failed_frac],
    }
    units = dict(E2E_UNITS)
    for p in done:
        per_command: dict[str, float] = {}
        for c in p.commands:
            per_command[c.command] = per_command.get(c.command, 0.0) + c.wall_s
        for command, wall in per_command.items():
            samples.setdefault(f"{command}_s", []).append(wall)
            units[f"{command}_s"] = "s"
    return {name: summarize(v, units[name]) for name, v in samples.items() if v}


def sweep_cost(n: int, m: int, k: int, beta: float) -> tuple[float, float]:
    """Computed flops and bytes of one sweep (both updates plus the objective).

    Counts the dense products and the elementwise passes over n x m arrays
    that ``_update_once`` and the divergence evaluation make, 8 bytes per
    element read or written; O(k(n+m)) terms are left out. Cache reuse is
    ignored, so the bytes are an upper bound, labelled computed.
    """
    nm = n * m
    if beta == 2:
        flops = 6 * nm * k + 4 * k * k * (n + m) + 3 * nm
        passes = 9
    else:
        flops = 10 * nm * k + 8 * nm
        passes = 27
    return float(flops), float(8 * passes * nm)


def per_layer(wl: Workload, pairs: list[tuple[Pipeline, Pipeline]], micro: dict) -> dict:
    """Layer metrics: medians over (untraced, traced) sequence pairs."""
    samples: dict[str, list] = {}
    units: dict[str, str] = {}
    for plain, spanned in pairs:
        for name, (value, unit) in _layer_values(wl, plain, spanned, micro).items():
            samples.setdefault(name, []).append(value)
            units[name] = unit
    return {name: summarize(v, units[name]) for name, v in samples.items()}


def _layer_values(wl: Workload, untraced: Pipeline, traced: Pipeline, micro: dict) -> dict:
    values: dict[str, tuple[float, str]] = {}
    totals: dict[str, float] = {}
    counts: dict = {}
    self_s = 0.0
    for c in traced.commands:
        totals[c.command] = totals.get(c.command, 0.0) + c.wall_s
        spans = c.spans["spans"]
        self_s += c.wall_s - sum(s["s"] for s in spans if s["parent"] is None)
        for s in spans:
            name = s["name"]
            # Only the solve command's call is the cold first solve a CLI
            # user pays; the hierarchy's per-level solves are kept apart.
            if name == "multitask.solve_task_basis" and c.command != "solve":
                name = "multitask.solve_task_basis.other"
            totals[name] = totals.get(name, 0.0) + s["s"]
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            for key in ("bytes", "iterations", "files"):
                if key in s:
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + s[key]
            for key in ("n_interior", "tasks", "purity", "levels", "top_states",
                        "k_star", "converged"):
                if key in s:
                    counts.setdefault(f"{name}.{key}", []).append(s[key])
    for command in {c.command for c in traced.commands}:
        values[f"cli.{command}.s"] = (totals[command], "s")
    values["cli.self_s"] = (self_s, "s")
    for name in ("domains.build_domain", "lmdp_core.save_lmdp", "lmdp_core.load_lmdp",
                 "multitask.solve_task_basis", "factorize.nmf", "factorize.select_k",
                 "hierarchy.build_hierarchy", "hierarchy.augment_with_subtasks",
                 "hierarchy.derive_higher_layer", "analysis.purity_report",
                 "analysis.boundary_score", "render.render_factorization_files",
                 "fileio.write_matrix_csv", "fileio.read_matrix_csv"):
        if name in totals:
            values[f"{name}.s"] = (totals[name], "s")
    values["domains.n_interior"] = (max(counts["domains.build_domain.n_interior"]), "count")
    json_bytes = (counts.get("lmdp_core.save_lmdp.bytes", 0)
                  + counts.get("lmdp_core.load_lmdp.bytes", 0))
    values["lmdp_core.json_bytes"] = (json_bytes, "bytes")
    values["multitask.solve_task_basis.warm_s"] = (micro["solve_warm_s"], "s")
    values["multitask.tasks"] = (sum(counts["multitask.solve_task_basis.tasks"]), "count")
    nmf_calls = counts["factorize.nmf.calls"]
    values["factorize.nmf.calls"] = (nmf_calls, "count")
    values["factorize.nmf.iterations"] = (counts["factorize.nmf.iterations"], "count")
    values["factorize.nmf.converged_frac"] = (
        sum(counts["factorize.nmf.converged"]) / nmf_calls, "1")
    if "factorize.select_k.k_star" in counts:
        k_star = counts["factorize.select_k.k_star"][0]
        values["factorize.select_k.k_star"] = (k_star if k_star is not None else 0, "count")
    for key in ("levels", "top_states"):
        observed = counts.get(f"hierarchy.build_hierarchy.{key}")
        if observed:
            values[f"hierarchy.{key}"] = (observed[0], "count")
    values["analysis.purity"] = (counts["analysis.purity_report.purity"][0], "1")
    values["render.files"] = (counts["render.render_factorization_files.files"], "count")
    values["render.bytes"] = (counts["render.render_factorization_files.bytes"], "bytes")
    for io in ("write", "read"):
        name = f"fileio.{io}_matrix_csv"
        nbytes = counts[f"{name}.bytes"]
        values[f"{name}.bytes"] = (nbytes, "bytes")
        values[f"{name}.mb_per_s"] = (nbytes / 1e6 / totals[name], "MB/s")

    n, m = micro["shape"]
    flops, nbytes = sweep_cost(n, m, wl.factor_k, wl.factor_beta)
    values["factorize.sweep_s"] = (micro["sweep_s"], "s")
    values["factorize.sweep_flop_computed"] = (flops, "flop")
    values["factorize.sweep_bytes_computed"] = (nbytes, "bytes")
    values["factorize.sweep_gflops"] = (flops / micro["sweep_s"] / 1e9, "GFLOP/s")
    values["trace.overhead_s"] = (
        sum(c.wall_s for c in traced.commands) - sum(c.wall_s for c in untraced.commands),
        "s")
    return values


def run_microbench(wl: Workload, seed: int) -> dict:
    child = run_child([sys.executable, str(HERE / "microbench.py"),
                       str(PIPE_DIR / "domain.json"), str(PIPE_DIR / "Z.csv"),
                       str(wl.factor_k), f"{wl.factor_beta:g}", str(wl.sweeps), str(seed)])
    if child.code != 0:
        raise BenchError(f"microbench exited {child.code}: {child.stderr.strip()[-500:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Environment and determinism across runs
# ---------------------------------------------------------------------------


def source_stats() -> tuple[int, str]:
    h = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "subtask_forge").glob("*.py")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, h.hexdigest()


def git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(source_lines: int, source_sha: str) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "SUBTASK_FORGE_THREADS": {"inherited": os.environ.get("SUBTASK_FORGE_THREADS"),
                                  "children": None},
        "git_commit": git_commit(),
        "source_lines": source_lines,
        "source_sha256": source_sha,
        "page_cache": "warm: caches are not dropped, timings include the page cache",
    }


def check_digests(wl: Workload, seed: int, source_sha: str,
                  pipelines: list[Pipeline]) -> list[str]:
    """D.csv/W.csv/meta.json must be identical across runs of one source tree.

    Compares every complete sequence of this run with the first, and with
    the digests an earlier run in this checkout recorded for the same
    workload, seed and source.
    """
    seen = [p.observed["digests"] for p in pipelines if p.complete]
    store = WORK / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    key = f"{wl.name}/{seed}/{source_sha}"
    if seen and key not in known:
        known[key] = seen[0]
        store.write_text(json.dumps(known, indent=1), encoding="utf-8")
    reference = known.get(key, {})
    differing = ([n for n in sorted(d) if d[n] != reference.get(n)] for d in seen)
    return [f"factor output {', '.join(names)} differs from an earlier run"
            for names in differing if names]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def gated_names(trace: bool) -> list[str]:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def bench(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    source_lines, source_sha = source_stats()
    run_child(cli_argv(["--version"]))  # untimed: first import compiles bytecode
    setup: list[Command] = []
    pipelines: list[Pipeline] = []
    pairs: list[tuple[Pipeline, Pipeline]] = []
    start = time.perf_counter()
    # Set-up samples are spread over the run, one before each sequence, so
    # that they see the same machine state as the sequences they precede.
    while True:
        if not trace and len(setup) < VERSION_RUNS:
            setup.append(measure_setup())
        if trace:
            # (untraced, traced), run in alternating order from pair to pair
            order = (False, True) if len(pairs) % 2 == 0 else (True, False)
            ran = {t: run_pipeline(wl, seed, traced=t) for t in order}
            pairs.append((ran[False], ran[True]))
            pipelines.extend(ran[t] for t in order)
        else:
            pipelines.append(run_pipeline(wl, seed, traced=False))
        if not all(p.complete for p in pipelines):
            break
        if len(pipelines) >= MIN_PIPELINES and time.perf_counter() - start >= seconds:
            break
    while not trace and len(setup) < VERSION_RUNS:
        setup.append(measure_setup())
    micro = run_microbench(wl, seed) if trace and pipelines[-1].complete else None

    digest_problems = check_digests(wl, seed, source_sha, pipelines)
    commands = setup + [c for p in pipelines for c in p.commands]
    failed = sum(1 for c in commands if c.problems) + len(digest_problems)
    attempted = len(commands)
    problems = [msg for c in commands for msg in c.problems] + digest_problems
    if not any(p.complete for p in pipelines):
        raise BenchError("no command sequence completed: " + "; ".join(problems))

    if trace:
        if micro is None:
            raise BenchError("traced sequence failed: " + "; ".join(problems))
        metrics = per_layer(wl, pairs, micro)
    else:
        metrics = end_to_end(pipelines, [c.wall_s for c in setup], failed / attempted)
    observed = {k: v for k, v in pipelines[0].observed.items() if k != "digests"}
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed, one client",
        "sequences": len(pipelines),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "observed": observed,
        "digests": pipelines[0].observed.get("digests"),
        "metrics": metrics,
        "environment": environment(source_lines, source_sha),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "subtask_forge" / "cli.py").is_file():
        print(f"error: {SRC / 'subtask_forge'} not found; run from the root of a "
              "subtask-forge source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        report = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        names = gated_names(bool(args.trace))
        missing = [n for n in names if n not in report["metrics"]]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(PIPE_DIR, ignore_errors=True)
    reports = WORK / "reports"
    reports.mkdir(exist_ok=True)
    text = json.dumps(report, sort_keys=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (reports / name).write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n]["median"],
                        "unit": report["metrics"][n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
