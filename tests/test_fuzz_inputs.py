"""Fuzzed input files through the CLI: every run exits 0, 2 or 3.

Exit 2 means invalid input and 3 a numerical failure; exit 1 would be an
uncaught exception. Each test mutates one valid input file and runs the
command that reads it, in process through click's CliRunner:

- a domain spec JSON with one top-level field or one parameter replaced,
  read by 'build';
- an LMDP JSON (the output of 'build') with one top-level field replaced,
  read by 'solve';
- a matrix CSV (the output of 'solve') with its header, a row length, one
  token or its line structure changed, read by 'factor';
- a factorization directory (the output of 'factor') with one meta.json
  field or one D/W cell replaced, read by 'analyze' in each mode and by
  'render'; a meta.json holding NaN or Infinity must exit 2.

Exit 0 must mean a finite answer: every file the command wrote is parsed
again, each JSON file must be strict JSON (no NaN or Infinity), each
matrix CSV and the doorway score CSV must hold finite numbers only, and no
SVG may draw a NaN or infinite value.

Drawn integers stay in [-2, 64], and numbers in [-2, 8] inside a domain
spec: a count is a size, and a count of 10**9 would make the loaders
allocate gigabytes before anything could reject it. A spec refuses a float
where it wants a count, so the spec's float draws exercise that rejection.
"""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subtask_forge.cli import main
from subtask_forge.domains import RingSpec, build_domain, build_ring, parse_domain_config
from subtask_forge.factorize import NmfOptions, nmf, write_factorization_files
from subtask_forge.fileio import read_matrix_csv
from subtask_forge.lmdp_core import lmdp_to_json_dict
from subtask_forge.multitask import build_uniform_task_basis, solve_task_basis

FUZZ = settings(max_examples=50)

runner = CliRunner()

def values(max_int, floats):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, max_int),
        floats,
        st.text(max_size=5),
    )
    return st.one_of(
        scalars,
        st.lists(st.one_of(scalars, st.lists(scalars, max_size=4)), max_size=6),
        st.dictionaries(
            st.sampled_from(["triplets", "x"]),
            st.one_of(scalars, st.lists(st.lists(scalars, max_size=4), max_size=4)),
            max_size=2,
        ),
    )


VALUES = values(64, st.floats(allow_nan=True, allow_infinity=True))
# a float where a spec wants a count must exit 2, naming the field
SPEC_VALUES = values(8, st.one_of(st.floats(-2.0, 8.0), st.sampled_from([np.nan, np.inf, -np.inf])))
RING = lmdp_to_json_dict(build_ring(RingSpec(4)))
SPECS = [
    {"type": "rooms", "params": {"room_rows": 1, "room_cols": 2, "room_size": 2,
                                 "layout": "grid", "twin_weight": 0.01},
     "r_step": -1.0, "lambda": 1.0},
    {"type": "taxi", "params": {"grid_side": 2, "depots": [[0, 0], [0, 1], [1, 0], [1, 1]],
                                "walls": [[[0, 0], [0, 1]]]},
     "r_step": -1.0, "lambda": 1.0},
    {"type": "ring", "params": {"n": 4}, "r_step": -1.0, "lambda": 1.0},
]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def check_outputs(tmp, inputs):
    """Every file a run wrote, that is every file but its inputs, is finite."""
    for path in Path(tmp).rglob("*"):
        if path.is_dir() or path in inputs:
            continue
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject_constant)
        elif path.name == "g.csv":  # doorway scores: header state,g
            assert np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1)).all(), path
        elif path.suffix == ".csv":
            assert np.isfinite(read_matrix_csv(path)).all(), path
        elif path.suffix == ".svg":
            assert not re.search(r"nan|inf", path.read_text(), re.I), path
        else:
            raise AssertionError(f"unexpected output {path}")


def run_cli(args, tmp=None, inputs=()) -> int:
    """Run the CLI; on exit 0 check every file written under ``tmp``."""
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"uncaught {result.exception!r}"
    )
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code == 0 and tmp is not None:
        check_outputs(tmp, inputs)
    return result.exit_code


@st.composite
def mutated_spec(draw):
    spec = json.loads(json.dumps(draw(st.sampled_from(SPECS))))
    if draw(st.booleans()):
        spec[draw(st.sampled_from(["type", "params", "r_step", "lambda", "x"]))] = draw(SPEC_VALUES)
    else:
        names = sorted(spec["params"]) + ["x"]
        spec["params"][draw(st.sampled_from(names))] = draw(SPEC_VALUES)
    return spec


@FUZZ
@given(spec=mutated_spec())
def test_build_on_mutated_domain_spec(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        run_cli(["build", path, Path(tmp) / "domain.json"], tmp, {path})


@FUZZ
@given(field=st.sampled_from(sorted(RING)), value=VALUES)
def test_solve_on_mutated_lmdp_json(field, value):
    d = json.loads(json.dumps(RING))
    d[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "domain.json"
        path.write_text(json.dumps(d))
        run_cli(["solve", path, Path(tmp) / "Z.csv"], tmp, {path})


def _csv_lines():
    rows = [[f"{1.0 + 0.1 * (i + j) + 0.01 * i * j!r}" for j in range(5)] for i in range(6)]
    return ["6,5"] + [",".join(r) for r in rows]


TOKENS = st.one_of(
    st.integers(-2, 64).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "1e999", "-0.0", "5e-324", "1.7e308", "0x1", "1_0", "\uff11",
                     "nan", "a,b"]),
    st.text(alphabet="0123456789.,e-+ x", max_size=5),
)


@st.composite
def mutated_csv(draw):
    lines = _csv_lines()
    how = draw(st.sampled_from(["header", "row length", "token", "blank line",
                                "line ends"]))
    if how == "header":
        lines[0] = draw(st.one_of(
            st.tuples(TOKENS, TOKENS).map(",".join), TOKENS))
    elif how == "row length":
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(",")
        if draw(st.booleans()):
            parts.pop(draw(st.integers(0, len(parts) - 1)))
        else:
            parts.insert(draw(st.integers(0, len(parts))), draw(TOKENS))
        lines[i] = ",".join(parts)
    elif how == "token":
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(",")
        parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
        lines[i] = ",".join(parts)
    elif how == "blank line":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " "])))
    else:
        end = draw(st.sampled_from(["\r\n", "\r", "\n"]))
        return end.join(lines) + draw(st.sampled_from([end, ""]))
    return "\n".join(lines) + "\n"


@FUZZ
@given(text=mutated_csv())
def test_factor_on_mutated_matrix_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "Z.csv"
        path.write_bytes(text.encode())
        run_cli(["factor", path, Path(tmp) / "fact", "--k", 2,
                 "--restarts", 1, "--max-iter", 5], tmp, {path})


def _fact_files() -> dict:
    """The files of a k=2 factorization of the first spec's basis."""
    L = build_domain(parse_domain_config(SPECS[0]))
    F = nmf(solve_task_basis(L, build_uniform_task_basis(L)), 2, 1.0,
            NmfOptions(restarts=1, max_iter=20))
    with tempfile.TemporaryDirectory() as tmp:
        write_factorization_files(tmp, F)
        return {name: (Path(tmp) / name).read_text() for name in ("D.csv", "W.csv", "meta.json")}


FACT = _fact_files()
FACT_COMMANDS = [["analyze", "{fact}", "{spec}", "{out}/g.csv", "--mode", "doorways"],
                 ["analyze", "{fact}", "{spec}", "{out}/p.json", "--mode", "purity"],
                 ["analyze", "{fact}", "{spec}", "{out}/c.json", "--mode", "compare",
                  "--against", "{good}"],
                 ["render", "{fact}", "{spec}", "{out}/svg"]]


@st.composite
def mutated_fact(draw):
    files = dict(FACT)
    name = draw(st.sampled_from(sorted(files)))
    if name == "meta.json":
        meta = json.loads(files[name])
        meta[draw(st.sampled_from(sorted(meta) + ["x"]))] = draw(VALUES)
        files[name] = json.dumps(meta)
    else:
        lines = files[name].splitlines()
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(",")
        parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
        lines[i] = ",".join(parts)
        files[name] = "\n".join(lines) + "\n"
    return files


def run_on_fact(files, command):
    """Write ``files`` as a factorization directory next to an intact one and
    the first spec, then run ``command`` on them."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = tmp / "spec.json"
        spec.write_text(json.dumps(SPECS[0]))
        inputs = {spec}
        for d, contents in (("fact", files), ("good", FACT)):
            (tmp / d).mkdir()
            for name, text in contents.items():
                (tmp / d / name).write_text(text)
                inputs.add(tmp / d / name)
        (tmp / "out").mkdir()
        paths = {"fact": tmp / "fact", "good": tmp / "good", "spec": spec, "out": tmp / "out"}
        return run_cli([a.format(**paths) for a in command], tmp, inputs)


def _strict_json(text: str) -> bool:
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return False
    return True


def _with_meta(**fields) -> dict:
    return {**FACT, "meta.json": json.dumps({**json.loads(FACT["meta.json"]), **fields})}


@FUZZ
@given(files=mutated_fact(), command=st.sampled_from(FACT_COMMANDS))
@example(files=_with_meta(beta=np.nan, divergence=np.inf), command=FACT_COMMANDS[1])
@example(files=_with_meta(x=[1, -np.inf]), command=FACT_COMMANDS[3])
def test_analyze_and_render_on_mutated_factorization(files, command):
    code = run_on_fact(files, command)
    if not _strict_json(files["meta.json"]):  # a NaN or infinity is invalid input
        assert code == 2


def test_fuzz_seeds_are_valid():
    """The unmutated inputs succeed, so a failure above comes from a mutation."""
    for i, spec in enumerate(SPECS):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(spec))
            assert run_cli(["build", path, Path(tmp) / "domain.json"], tmp, {path}) == 0, i
    with tempfile.TemporaryDirectory() as tmp:
        lmdp, csv = Path(tmp) / "domain.json", Path(tmp) / "Z.csv"
        lmdp.write_text(json.dumps(RING))
        csv.write_text("\n".join(_csv_lines()) + "\n")
        assert run_cli(["solve", lmdp, Path(tmp) / "Z_out.csv"], tmp, {lmdp, csv}) == 0
        assert run_cli(["factor", csv, Path(tmp) / "fact", "--k", 2,
                        "--restarts", 1, "--max-iter", 5], tmp, {lmdp, csv}) == 0
    for command in FACT_COMMANDS:
        assert run_on_fact(FACT, command) == 0, command
