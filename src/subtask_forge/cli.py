"""Command-line pipeline around the library.

Seven commands cover the full workflow: build a domain, solve its task
basis, factorize, pick a rank, stack a hierarchy, analyze a factorization
and render it. Every command writes its outputs atomically and drops a run
manifest next to (or inside) what it wrote, so artifacts can be traced back
to the exact invocation, inputs and seeds that produced them.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import time

import click

from . import __version__
from .analysis import (
    boundary_score,
    purity_report,
    subtask_distance,
    write_boundary_scores,
)
from .domains import DOMAINS, build_domain, parse_domain_config, region_labels
from .errors import NUMERICAL_ERRORS
from .factorize import (
    NmfOptions,
    nmf,
    read_factorization,
    select_k,
    write_factorization_files,
    write_k_curve,
)
from .hierarchy import build_hierarchy, write_hierarchy_files
from .lmdp_core import load_lmdp, save_lmdp
from .multitask import DEFAULT_Q_FLOOR, solve_task_basis
from .render import render_factorization_files
from . import fileio

_OPT = NmfOptions()
#: Label kinds per domain kind that has any; the first is the purity default.
_LABELS = {kind: list(labelers) for kind, (_, _, labelers) in DOMAINS.items()
           if labelers}
#: The files of a factorization directory.
_FACT_FILES = ("D.csv", "W.csv", "meta.json")


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


class _Run:
    """Collects inputs, seeds and parameters while a command executes."""

    def __init__(self, command: str):
        self.command = command
        self.t0 = time.perf_counter()
        self.inputs: dict = {}
        self.seeds: dict = {}
        self.parameters: dict = {}

    def input_file(self, path):
        self.inputs[os.fspath(path)] = _digest(path)

    def input_dir(self, path):
        for name in _FACT_FILES:
            self.input_file(os.path.join(path, name))

    def nmf_options(self, seed, restarts, max_iter, tol) -> NmfOptions:
        """Record the four NMF flags and return them as options."""
        self.seeds["seed"] = seed
        self.parameters.update(restarts=restarts, max_iter=max_iter, tol=tol)
        return NmfOptions(max_iter=max_iter, tol=tol, restarts=restarts, seed=seed)

    def manifest(self, outputs) -> dict:
        """Provenance record emitted with every command's output."""
        return {
            "command": self.command,
            "argv": list(sys.argv),
            "version": __version__,
            "inputs": self.inputs,
            "outputs": [os.fspath(p) for p in outputs],
            "seeds": self.seeds,
            "parameters": self.parameters,
            "duration_seconds": time.perf_counter() - self.t0,
        }

    def emit_beside(self, out_path):
        """Sibling <out_path>.manifest.json for single-file outputs."""
        fileio.atomic_write_json(f"{os.fspath(out_path)}.manifest.json",
                                 self.manifest([out_path]))

    def emit_inside(self, dir_path, outputs):
        """manifest.json at the root of a directory output."""
        fileio.atomic_write_json(os.path.join(dir_path, "manifest.json"),
                                 self.manifest(outputs))


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NUMERICAL_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3)
        except KeyError as exc:
            click.echo(f"error: missing required key {exc}", err=True)
            raise SystemExit(2)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)

    return wrapper


def _list(text: str, flag: str, cast, kind: str) -> list:
    try:
        return [cast(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated {kind}, got {text!r}")


def _nmf_flags(fn):
    for deco in (
        click.option("--seed", type=int, default=_OPT.seed, show_default=True,
                     help="Root seed for all factorization restarts."),
        click.option("--restarts", type=int, default=_OPT.restarts, show_default=True,
                     help="Independent initializations; best final fit wins."),
        click.option("--max-iter", type=int, default=_OPT.max_iter, show_default=True,
                     help="Multiplicative update budget per restart."),
        click.option("--tol", type=float, default=_OPT.tol, show_default=True,
                     help="Mean relative improvement per sweep between a restart's "
                          "recorded values at or below which it stops."),
        click.option("--beta", type=float, default=1.0, show_default=True,
                     help="Beta-divergence parameter (0 IS, 1 KL, 2 Frobenius)."),
    ):
        fn = deco(fn)
    return fn


_IN_FILE = click.Path(exists=True, dir_okay=False)
_IN_DIR = click.Path(exists=True, file_okay=False)
_OUT_FILE = click.Path(dir_okay=False)
_OUT_DIR = click.Path(file_okay=False)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="subtask-forge")
def main():
    """Subtask discovery for linearly solvable Markov decision processes."""


@main.command("build")
@click.argument("spec_path", type=_IN_FILE)
@click.argument("out_path", type=_OUT_FILE)
@_guarded
def cmd_build(spec_path, out_path):
    """Build the domain described by SPEC_PATH and write its LMDP JSON.

    SPEC_PATH is a JSON object {"type": "rooms"|"taxi"|"ring", "params":
    {...}, "r_step": ..., "lambda": ...}; see the README for the parameter
    list of each domain type.
    """
    run = _Run("build")
    run.input_file(spec_path)
    cfg = parse_domain_config(fileio.read_json(spec_path))
    L = build_domain(cfg)
    save_lmdp(out_path, L)
    run.emit_beside(out_path)
    click.echo(
        f"wrote {out_path}: {L.n_interior} interior, {L.n_boundary} boundary states"
    )


@main.command("solve")
@click.argument("domain_path", type=_IN_FILE)
@click.argument("out_path", type=_OUT_FILE)
@click.option("--q-floor", type=float, default=DEFAULT_Q_FLOOR, show_default=True,
              help="Positive floor applied to zero boundary rewards.")
@_guarded
def cmd_solve(domain_path, out_path, q_floor):
    """Solve DOMAIN_PATH (LMDP JSON from 'build') for the uniform task basis.

    Writes the desirability basis Z as a matrix CSV: one row per interior
    state, one column per boundary state. Z is never held in memory: each
    solved block goes to a spill file beside OUT_PATH, which the CSV writer
    reads back by rows.
    """
    run = _Run("solve")
    run.input_file(domain_path)
    run.parameters["q_floor"] = q_floor
    L = load_lmdp(domain_path)
    with fileio.Spill((L.n_interior, L.n_boundary), os.path.dirname(out_path) or ".") as spill:
        Z = solve_task_basis(L, q_floor=q_floor, out=spill)
        fileio.write_matrix_csv(out_path, Z)
    run.emit_beside(out_path)
    click.echo(f"wrote {out_path}: {Z.shape[0]}x{Z.shape[1]} desirability basis")


@main.command("factor")
@click.argument("z_path", type=_IN_FILE)
@click.argument("out_dir", type=_OUT_DIR)
@click.option("--k", type=int, required=True, help="Number of subtasks.")
@_nmf_flags
@_guarded
def cmd_factor(z_path, out_dir, k, beta, seed, restarts, max_iter, tol):
    """Factorize the basis at Z_PATH into OUT_DIR/{D.csv,W.csv,meta.json}."""
    run = _Run("factor")
    run.input_file(z_path)
    run.parameters.update(k=k, beta=beta)
    Z = fileio.read_matrix_csv(z_path)
    F = nmf(Z, k, beta, run.nmf_options(seed, restarts, max_iter, tol))
    with fileio.staged_dir(out_dir) as stage:
        write_factorization_files(stage, F)
        run.emit_inside(stage, _FACT_FILES)
    click.echo(
        f"wrote {out_dir}: k={k} beta={beta:g} "
        f"normalized divergence {F.normalized_divergence:.6g}"
    )


@main.command("select_k")
@click.argument("z_path", type=_IN_FILE)
@click.argument("out_path", type=_OUT_FILE)
@click.option("--kmax", type=int, required=True,
              help="Largest rank to evaluate (at least 3).")
@_nmf_flags
@_guarded
def cmd_select_k(z_path, out_path, beta, kmax, seed, restarts, max_iter, tol):
    """Scan ranks 1..KMAX on Z_PATH, write the k-curve CSV, print k_star."""
    run = _Run("select_k")
    run.input_file(z_path)
    run.parameters.update(beta=beta, kmax=kmax)
    Z = fileio.read_matrix_csv(z_path)
    sel = select_k(Z, beta, kmax, run.nmf_options(seed, restarts, max_iter, tol))
    write_k_curve(out_path, sel)
    run.emit_beside(out_path)
    click.echo(f"k_star = {sel.k_star if sel.k_star is not None else 'none'}")


@main.command("hierarchy")
@click.argument("domain_path", type=_IN_FILE)
@click.argument("out_dir", type=_OUT_DIR)
@click.option("--ks", required=True,
              help="Comma-separated subtask counts per level, e.g. 16,4.")
@click.option("--alphas", default=None,
              help="Comma-separated subtask weights per level [default: 0.1 each].")
@_nmf_flags
@_guarded
def cmd_hierarchy(domain_path, out_dir, ks, alphas, beta, seed, restarts,
                  max_iter, tol):
    """Stack subtask layers on DOMAIN_PATH (LMDP JSON from 'build').

    Writes one level_<l>/ directory per entry of --ks, each holding that
    level's LMDP JSON and factorization, plus top.json and hierarchy.json.
    """
    run = _Run("hierarchy")
    run.input_file(domain_path)
    k_schedule = _list(ks, "--ks", int, "integers")
    alpha_schedule = ([0.1] * len(k_schedule) if alphas is None
                      else _list(alphas, "--alphas", float, "numbers"))
    run.parameters.update(ks=k_schedule, alphas=alpha_schedule, beta=beta)
    L = load_lmdp(domain_path)
    H = build_hierarchy(L, k_schedule, alpha_schedule, beta,
                        run.nmf_options(seed, restarts, max_iter, tol))
    with fileio.staged_dir(out_dir) as stage:
        run.emit_inside(stage, write_hierarchy_files(stage, H))
    click.echo(f"wrote {out_dir}: {H.depth} levels, "
               f"top has {H.top.n_interior} interior states")


@main.command("analyze")
@click.argument("fact_dir", type=_IN_DIR)
@click.argument("domain_path", type=_IN_FILE)
@click.argument("out_path", type=_OUT_FILE)
@click.option("--mode", type=click.Choice(["doorways", "purity", "compare"]),
              required=True, help="Which analysis to run.")
@click.option("--labels", default=None,
              type=click.Choice([k for kinds in _LABELS.values() for k in kinds]),
              help="Region labels for purity [default: " + ", ".join(
                  f"{kinds[0]} for {kind}" for kind, kinds in _LABELS.items())
              + " domains].")
@click.option("--against", type=_IN_DIR, default=None,
              help="Second factorization directory (compare mode).")
@click.option("--epsilon", type=float, default=1e-6, show_default=True,
              help="Equivalence threshold: equivalent when distance <= epsilon.")
@click.option("--compare-product", is_flag=True,
              help="Compare D@W products instead of normalized D columns.")
@_guarded
def cmd_analyze(fact_dir, domain_path, out_path, mode, labels, against,
                epsilon, compare_product):
    """Analyze the factorization in FACT_DIR against the domain spec JSON.

    DOMAIN_PATH is the domain spec (the input of 'build', not its output);
    the domain is rebuilt from it when dynamics are needed. Modes:

    doorways: per-state representation-change score g, written as CSV.

    purity: agreement between strongest-subtask clusters and ground-truth
    regions, written as JSON.

    compare: matched subtask distance to a second factorization
    (--against), written as JSON.
    """
    run = _Run("analyze")
    run.input_dir(fact_dir)
    run.input_file(domain_path)
    run.parameters["mode"] = mode
    F = read_factorization(fact_dir)
    cfg = parse_domain_config(fileio.read_json(domain_path))
    if mode == "doorways":
        g = boundary_score(F, build_domain(cfg))
        write_boundary_scores(out_path, g)
        click.echo(f"wrote {out_path}: max g {g.max():.6g} at state {int(g.argmax())}")
    elif mode == "purity":
        report = purity_report(F, region_labels(cfg, labels))
        run.parameters["labels"] = labels or _LABELS[cfg.kind][0]
        fileio.atomic_write_json(out_path, report)
        click.echo(f"purity = {report['purity']:.4f}")
    else:
        if against is None:
            raise ValueError("--against is required with --mode compare")
        if not 0 <= epsilon < math.inf:
            raise ValueError(f"--epsilon must be a finite number >= 0, got {epsilon}")
        run.input_dir(against)
        run.parameters.update(epsilon=epsilon,
                              compare_product=bool(compare_product))
        other = read_factorization(against)
        dist = subtask_distance(F, other, compare_product=compare_product)
        verdict = bool(dist <= epsilon)
        fileio.atomic_write_json(out_path, {
            "distance": dist,
            "epsilon": epsilon,
            "compare_product": bool(compare_product),
            "equivalent": verdict,
        })
        word = "equivalent" if verdict else "different"
        click.echo(f"distance = {dist:.6g} ({word} at epsilon={epsilon:g})")
    run.emit_beside(out_path)


@main.command("render")
@click.argument("fact_dir", type=_IN_DIR)
@click.argument("domain_path", type=_IN_FILE)
@click.argument("out_dir", type=_OUT_DIR)
@_guarded
def cmd_render(fact_dir, domain_path, out_dir):
    """Render each subtask column of FACT_DIR as an SVG heatmap.

    DOMAIN_PATH is the domain spec JSON; it fixes the geometry (rooms grid,
    taxi passenger panels, ring strip) the columns are drawn over.
    """
    run = _Run("render")
    run.input_dir(fact_dir)
    run.input_file(domain_path)
    F = read_factorization(fact_dir)
    cfg = parse_domain_config(fileio.read_json(domain_path))
    with fileio.staged_dir(out_dir) as stage:
        names = render_factorization_files(stage, cfg, F.D)
        run.emit_inside(stage, names)
    click.echo(f"wrote {out_dir}: {len(names)} heatmaps")


if __name__ == "__main__":
    main()
