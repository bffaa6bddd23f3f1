"""Start-up cost of the CLI: scipy loads only where it is called.

Each CLI command runs in a fresh process, so everything the CLI imports at
module level is paid by every command. These tests import the CLI in a clean
interpreter and check which scipy modules that pulled in, and which ones the
commands that never touch a sparse matrix pull in when they run. A static
check keeps every scipy import inside the few functions that call scipy.
Source that no command runs is compiled by each command all the same, so the
last test keeps the package free of public functions and classes that nothing
uses.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from subtask_forge.domains import build_domain, parse_domain_config
from subtask_forge.fileio import write_matrix_csv
from subtask_forge.multitask import solve_task_basis

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PRELUDE = """
import json, sys
def loaded(*names):
    return sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in names))
def heavy():
    return loaded("scipy.optimize", "scipy.sparse.linalg")
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
print(json.dumps({"scipy": loaded("scipy")}))
""")
    assert out["scipy"] == []


def test_cli_import_builds_no_formatter_table():
    # ``--version`` imports the CLI and formats nothing: the formatter's
    # module, and so its power table, loads with the first matrix written
    out = run_cold("""
import subtask_forge.cli
print(json.dumps({"loaded": loaded("subtask_forge.floatrepr")}))
""")
    assert out == {"loaded": []}


def test_commands_without_sparse_matrices_load_no_scipy(tmp_path):
    spec = {"type": "rooms", "params": {"room_rows": 2, "room_cols": 2, "room_size": 2}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    L = build_domain(parse_domain_config(spec))
    write_matrix_csv(tmp_path / "Z.csv", solve_task_basis(L))
    nmf_flags = ["--restarts", "1", "--max-iter", "20"]
    commands = {
        "factor": ["factor", "Z.csv", "fact", "--k", "4", *nmf_flags],
        "select_k": ["select_k", "Z.csv", "curve.csv", "--kmax", "4", *nmf_flags],
        "purity": ["analyze", "fact", "spec.json", "purity.json", "--mode", "purity"],
        "render": ["render", "fact", "spec.json", "svg"],
    }
    out = run_cold(f"""
import os
from subtask_forge.cli import main
os.chdir({str(tmp_path)!r})
after = {{}}
for name, args in {commands!r}.items():
    main.main(args, standalone_mode=False)
    after[name] = loaded("scipy")
print(json.dumps(after))
""")
    assert out == {name: [] for name in commands}
    assert (tmp_path / "purity.json").is_file()
    assert len(list((tmp_path / "svg").glob("*.svg"))) == 4


def test_lmdp_commands_at_the_paper_sizes_load_no_scipy(tmp_path):
    # below lmdp_core.DENSE_MAX_STATES the dynamics stay numpy triplets and
    # the solve is dense, so building, solving, scoring doorways and stacking
    # a hierarchy load no scipy module at all
    spec = {"type": "rooms", "params": {"room_rows": 2, "room_cols": 2, "room_size": 3},
            "r_step": -1.0, "lambda": 20.0}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    nmf_flags = ["--restarts", "1", "--max-iter", "20"]
    commands = {
        "build": ["build", "spec.json", "domain.json"],
        "solve": ["solve", "domain.json", "Z.csv"],
        "factor": ["factor", "Z.csv", "fact", "--k", "4", *nmf_flags],
        "doorways": ["analyze", "fact", "spec.json", "g.csv", "--mode", "doorways"],
        "hierarchy": ["hierarchy", "domain.json", "stack", "--ks", "4,2", *nmf_flags],
    }
    out = run_cold(f"""
import os
from subtask_forge.cli import main
os.chdir({str(tmp_path)!r})
after = {{}}
for name, args in {commands!r}.items():
    main.main(args, standalone_mode=False)
    after[name] = loaded("scipy")
print(json.dumps(after))
""")
    assert out == {name: [] for name in commands}
    assert (tmp_path / "g.csv").is_file()
    assert (tmp_path / "stack" / "top.json").is_file()


def test_package_root_exports_the_readme_quick_start():
    block = re.search(r"from subtask_forge import \([^)]*\)",
                      (ROOT / "README.md").read_text()).group(0)
    names = re.findall(r"\w+", block.split("(", 1)[1])
    out = run_cold(block + """
import subtask_forge
print(json.dumps({"all": subtask_forge.__all__}))
""")
    assert sorted(out["all"]) == sorted(names + ["__version__"])


def test_solvers_work_after_cold_import():
    # a dense basis solve and a fit load no heavy scipy module; the matched
    # distance is the one call here that loads them
    out = run_cold("""
import subtask_forge.cli
from subtask_forge.analysis import subtask_distance
from subtask_forge.domains import RingSpec, build_ring
from subtask_forge.factorize import NmfOptions, nmf
from subtask_forge.multitask import solve_task_basis
cold = heavy()
Z = solve_task_basis(build_ring(RingSpec(8)))
F = nmf(Z, 2, 1.0, NmfOptions(max_iter=50, restarts=2, seed=0))
fitted = heavy()
distance = subtask_distance(F, F)
print(json.dumps({"cold": cold, "fitted": fitted, "matched": heavy(),
                  "self_distance": distance}))
""")
    assert out["cold"] == []
    assert out["fitted"] == []
    assert {"scipy.optimize", "scipy.sparse.linalg"} <= set(out["matched"])
    assert out["self_distance"] < 1e-12


def test_perfbench_finds_every_name_it_uses():
    # the benchmark wraps these attributes and imports these names; a rename
    # in the package would break only a benchmark run, so check them here
    out = run_cold(f"""
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import microbench, traced_cli
print(json.dumps({{"missing": [f"{{owner.__name__}}.{{attr}}"
                              for owner, attr, _ in traced_cli.TARGETS
                              if not hasattr(owner, attr)]}}))
""")
    assert out == {"missing": []}


#: The only places the package imports scipy: each is slow to import, so it
#: loads inside the one function that calls it, and the dynamics are numpy
#: triplets everywhere else.
SCIPY_IMPORTERS = {"lmdp_core._lu_of_i_minus", "analysis.subtask_distance"}


def scipy_importers(node: ast.AST, where: str) -> set[str]:
    """Qualified names of the functions and classes under ``node`` (the
    module itself for a top-level import) that import a scipy module."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out |= scipy_importers(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and not child.level:
            modules = [child.module]
        else:
            modules = []
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            out.add(where)
        out |= scipy_importers(child, where)
    return out


def test_scipy_is_imported_only_where_it_is_called():
    found = set().union(*(scipy_importers(ast.parse(p.read_text()), p.stem)
                          for p in (SRC / "subtask_forge").glob("*.py")))
    assert found == SCIPY_IMPORTERS


def names_in_code(tree: ast.AST) -> set[str]:
    """Identifiers a module's code names: names, attributes, imported names
    and whole string constants (as attribute tables hold names). A name
    mentioned inside a docstring or a comment does not count."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_definition_is_used():
    # a public top-level def or class must be a click command, be named in
    # code by another module of the package or by the benchmark, or be used
    # in its own module; an oracle that only tests call lives in
    # tests/reference.py
    trees = {p: ast.parse(p.read_text()) for p in sorted((SRC / "subtask_forge").glob("*.py"))}
    names = {p: names_in_code(tree) for p, tree in trees.items()}
    bench = set().union(*(names_in_code(ast.parse(p.read_text()))
                          for p in (ROOT / "perfbench").glob("*.py")))
    unused = []
    for path, tree in trees.items():
        elsewhere = bench.union(*(names[p] for p in trees if p != path))
        unused += [f"{path.stem}.{node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_") and not node.decorator_list
                   and node.name not in elsewhere and node.name not in names[path]]
    assert unused == []
