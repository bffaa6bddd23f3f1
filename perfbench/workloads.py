"""Workload definitions: the CLI sequence each workload runs and its checks.

Every workload uses the paper regime of ``tests/conftest.py`` (twin weight
0.01, step reward -1, temperature 20). NMF budgets use ``--tol 0`` so every
restart runs exactly ``--max-iter`` sweeps: the work per run is then the same
for every seed, and a change in fit shows in ``fit_divergence`` instead of
in the time.
"""

from __future__ import annotations

from dataclasses import dataclass

REGIME = {"r_step": -1.0, "lambda": 20.0}
TWIN_WEIGHT = 0.01


@dataclass(frozen=True)
class Step:
    """One CLI invocation; ``argv`` items are formatted with the run's fields."""

    command: str
    argv: tuple[str, ...]
    check: str


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    z_shape: tuple[int, int]
    factor_k: int
    factor_beta: float
    steps: tuple[Step, ...]
    purity_min: float | None = None
    kmax: int | None = None
    top_states: int | None = None
    sweeps: int = 100  # sweeps per microbenchmark call (traced run only)


def _rooms(rows, cols, size):
    return {"type": "rooms",
            "params": {"room_rows": rows, "room_cols": cols, "room_size": size,
                       "twin_weight": TWIN_WEIGHT}, **REGIME}


def _nmf(restarts: int, max_iter: int) -> tuple[str, ...]:
    return ("--seed", "{seed}", "--restarts", str(restarts),
            "--max-iter", str(max_iter), "--tol", "0")


BUILD = Step("build", ("build", "{dir}/spec.json", "{dir}/domain.json"), "build")
SOLVE = Step("solve", ("solve", "{dir}/domain.json", "{dir}/Z.csv"), "solve")
PURITY = Step("analyze", ("analyze", "{dir}/fact", "{dir}/spec.json",
                          "{dir}/purity.json", "--mode", "purity"), "purity")
DOORWAYS = Step("analyze", ("analyze", "{dir}/fact", "{dir}/spec.json",
                            "{dir}/g.csv", "--mode", "doorways"), "doorways")
RENDER = Step("render", ("render", "{dir}/fact", "{dir}/spec.json",
                         "{dir}/svg"), "render")


def _factor(k: int, beta: float, restarts: int, max_iter: int) -> Step:
    return Step("factor", ("factor", "{dir}/Z.csv", "{dir}/fact", "--k", str(k),
                           "--beta", f"{beta:g}", *_nmf(restarts, max_iter)),
                "factor")


WORKLOADS = {
    w.name: w for w in (
        # Mid-size KL NMF bound by elementwise work and BLAS: NMF kernel and
        # stacked-restart changes show here. Many short restarts, because a
        # single restart often merges two rooms (see NOTES.md).
        Workload(
            name="rooms-factor",
            spec=_rooms(4, 4, 5),
            z_shape=(400, 400),
            factor_k=16,
            factor_beta=1.0,
            steps=(BUILD, SOLVE, _factor(16, 1.0, 14, 80), PURITY, DOORWAYS, RENDER),
            purity_min=0.9,
            sweeps=60,
        ),
        # 13 small NMF calls (26 restarts) bound by per-sweep Python
        # overhead, seven process start-ups and the hierarchy layer.
        Workload(
            name="taxi-scan",
            spec={"type": "taxi", "params": {"twin_weight": TWIN_WEIGHT}, **REGIME},
            z_shape=(125, 125),
            factor_k=5,
            factor_beta=1.0,
            steps=(
                BUILD, SOLVE,
                Step("select_k", ("select_k", "{dir}/Z.csv", "{dir}/curve.csv",
                                  "--kmax", "10", *_nmf(2, 300)), "select_k"),
                _factor(5, 1.0, 2, 300),
                PURITY,
                Step("hierarchy", ("hierarchy", "{dir}/domain.json", "{dir}/stack",
                                   "--ks", "5,2", "--alphas", "0.1,0.1",
                                   *_nmf(2, 300)), "hierarchy"),
                RENDER,
            ),
            purity_min=0.9,
            kmax=10,
            top_states=2,
            sweeps=400,
        ),
        # The 57 MB Z.csv write and read dominate; the short Frobenius
        # factor is bypassed by KL-only changes.
        Workload(
            name="large-io",
            spec=_rooms(8, 8, 5),
            z_shape=(1600, 1600),
            factor_k=64,
            factor_beta=2.0,
            steps=(BUILD, SOLVE, _factor(64, 2.0, 1, 20), DOORWAYS, PURITY, RENDER),
            sweeps=10,
        ),
        # Not a timed workload: a tiny input that runs every command and
        # every check in seconds, as the benchmark's own test.
        Workload(
            name="smoke",
            spec=_rooms(2, 2, 3),
            z_shape=(36, 36),
            factor_k=4,
            factor_beta=1.0,
            steps=(
                BUILD, SOLVE,
                Step("select_k", ("select_k", "{dir}/Z.csv", "{dir}/curve.csv",
                                  "--kmax", "4", *_nmf(1, 50)), "select_k"),
                _factor(4, 1.0, 1, 50),
                PURITY, DOORWAYS,
                Step("hierarchy", ("hierarchy", "{dir}/domain.json", "{dir}/stack",
                                   "--ks", "4,2", "--alphas", "0.1,0.1",
                                   *_nmf(1, 50)), "hierarchy"),
                RENDER,
            ),
            kmax=4,
            top_states=2,
            sweeps=50,
        ),
    )
}
