"""Run one subtask-forge CLI command with spans around each layer's public calls.

Usage: python perfbench/traced_cli.py SPANS_JSON CLI_ARG...

The package is left untouched: spans come from wrapping the module attributes
that ``cli``, ``factorize``, ``hierarchy`` and ``fileio`` callers look up at
call time, e.g. ``cli.nmf``, ``factorize.nmf`` (inside ``select_k``),
``hierarchy.solve_task_basis`` and ``fileio.write_matrix_csv``. Each span is
named ``<defining module>.<function>`` and records its start, duration,
parent span and a few counters. When the command exits, whatever its exit
code, SPANS_JSON receives ``{"import_s": ..., "spans": [...]}``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

T0 = time.perf_counter()

from subtask_forge import cli, factorize, fileio, hierarchy  # noqa: E402

IMPORT_S = time.perf_counter() - T0


def _nmf_counters(args, out):
    return {"iterations": out.iterations, "converged": out.converged}


def _render_bytes(args, out):
    return {"files": len(out),
            "bytes": sum(os.path.getsize(os.path.join(args[0], name)) for name in out)}


# (owner module, attribute, counters(args, result) -> dict). Sizes of files
# read are taken from the path argument; of files written, after the call.
TARGETS = (
    (cli, "build_domain", lambda a, out: {"n_interior": out.n_interior}),
    (cli, "save_lmdp", lambda a, out: {"bytes": os.path.getsize(a[0])}),
    (cli, "load_lmdp", lambda a, out: {"bytes": os.path.getsize(a[0])}),
    (cli, "solve_task_basis", lambda a, out: {"tasks": out.shape[1]}),
    (cli, "nmf", _nmf_counters),
    (cli, "select_k", lambda a, out: {"k_star": out.k_star}),
    (cli, "build_hierarchy",
     lambda a, out: {"levels": out.depth, "top_states": out.top.n_interior}),
    (cli, "write_hierarchy_files", None),
    (cli, "write_factorization_files", None),
    (cli, "write_k_curve", None),
    (cli, "read_factorization", None),
    (cli, "purity_report", lambda a, out: {"purity": out["purity"]}),
    (cli, "boundary_score", None),
    (cli, "write_boundary_scores", None),
    (cli, "render_factorization_files", _render_bytes),
    (factorize, "nmf", _nmf_counters),
    (hierarchy, "solve_task_basis", lambda a, out: {"tasks": out.shape[1]}),
    (hierarchy, "nmf", _nmf_counters),
    (hierarchy, "augment_with_subtasks", None),
    (hierarchy, "derive_higher_layer", None),
    (hierarchy, "save_lmdp", lambda a, out: {"bytes": os.path.getsize(a[0])}),
    (hierarchy, "write_factorization_files", None),
    (fileio, "write_matrix_csv", lambda a, out: {"bytes": os.path.getsize(a[0])}),
    (fileio, "read_matrix_csv", lambda a, out: {"bytes": os.path.getsize(a[0])}),
)


class SpanRecorder:
    """In-memory spans with a parent stack; one recorder per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, counters) -> None:
        fn = getattr(owner, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["start"] = start - T0
                span["s"] = time.perf_counter() - start
                self._stack.pop()
            if counters is not None:
                span.update(counters(args, out))
            return out

        setattr(owner, attr, traced)


def main(argv: list[str]) -> None:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    for owner, attr, counters in TARGETS:
        recorder.wrap(owner, attr, counters)
    try:
        cli.main(args=cli_args, prog_name="subtask-forge")
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
