"""Fuzzed input files through the CLI: every run exits 0, 2 or 3.

Exit 2 means invalid input and 3 a numerical failure; exit 1 would be an
uncaught exception. Each test mutates one valid input file and runs the
command that reads it, in process through click's CliRunner:

- an LMDP JSON (the output of 'build') with one top-level field replaced,
  read by 'solve';
- a matrix CSV (the output of 'solve') with its header, a row length or one
  token changed, read by 'factor'.

Drawn integers stay in [-2, 64]: a count is a size, and a count of 10**9
would make the loaders allocate gigabytes before anything could reject it.
"""

import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from subtask_forge.cli import main
from subtask_forge.domains import RingSpec, build_ring
from subtask_forge.lmdp_core import lmdp_to_json_dict

FUZZ = settings(derandomize=True, deadline=None, max_examples=50, database=None)

runner = CliRunner()

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=4)), max_size=6),
    st.dictionaries(
        st.sampled_from(["triplets", "x"]),
        st.one_of(SCALARS, st.lists(st.lists(SCALARS, max_size=4), max_size=4)),
        max_size=2,
    ),
)
RING = lmdp_to_json_dict(build_ring(RingSpec(4)))


def run_cli(args) -> int:
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"uncaught {result.exception!r}"
    )
    assert result.exit_code in (0, 2, 3), result.output
    return result.exit_code


@FUZZ
@given(field=st.sampled_from(sorted(RING)), value=VALUES)
def test_solve_on_mutated_lmdp_json(field, value):
    d = json.loads(json.dumps(RING))
    d[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "domain.json"
        path.write_text(json.dumps(d))
        run_cli(["solve", path, Path(tmp) / "Z.csv"])


def _csv_lines():
    rows = [[f"{1.0 + 0.1 * (i + j) + 0.01 * i * j!r}" for j in range(5)] for i in range(6)]
    return ["6,5"] + [",".join(r) for r in rows]


TOKENS = st.one_of(
    st.integers(-2, 64).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "1e999", "-0.0", "5e-324", "0x1", "1_0", "nan", "a,b"]),
    st.text(alphabet="0123456789.,e-+ x", max_size=5),
)


@st.composite
def mutated_csv(draw):
    lines = _csv_lines()
    how = draw(st.sampled_from(["header", "row length", "token"]))
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
    else:
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(",")
        parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
        lines[i] = ",".join(parts)
    return "\n".join(lines) + "\n"


@FUZZ
@given(text=mutated_csv())
def test_factor_on_mutated_matrix_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "Z.csv"
        path.write_text(text)
        run_cli(["factor", path, Path(tmp) / "fact", "--k", 2,
                 "--restarts", 1, "--max-iter", 5])


def test_fuzz_seeds_are_valid():
    """The unmutated inputs succeed, so a failure above comes from a mutation."""
    with tempfile.TemporaryDirectory() as tmp:
        lmdp, csv = Path(tmp) / "domain.json", Path(tmp) / "Z.csv"
        lmdp.write_text(json.dumps(RING))
        csv.write_text("\n".join(_csv_lines()) + "\n")
        assert run_cli(["solve", lmdp, Path(tmp) / "Z_out.csv"]) == 0
        assert run_cli(["factor", csv, Path(tmp) / "fact", "--k", 2,
                        "--restarts", 1, "--max-iter", 5]) == 0
