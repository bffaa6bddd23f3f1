"""End-to-end command tests through click's CliRunner.

A module-scoped workspace runs build -> solve -> factor once on a small
rooms domain; the other commands and the failure modes reuse its artifacts.
"""

import hashlib
import json
import re
import time
import tracemalloc

import pytest
from click.testing import CliRunner

from conftest import benchmark_rooms, benchmark_taxi
from subtask_forge import fileio, lmdp_core
from subtask_forge.cli import main
from subtask_forge.domains import RingSpec, build_ring, parse_domain_config
from subtask_forge.fileio import read_json, write_matrix_csv
from subtask_forge.lmdp_core import lmdp_to_json_dict, load_lmdp, save_lmdp
from subtask_forge.multitask import solve_task_basis

ROOMS_SPEC = {
    "type": "rooms",
    "params": {"room_rows": 2, "room_cols": 2, "room_size": 3,
               "twin_weight": 0.01},
    "r_step": -1.0,
    "lambda": 20.0,
}

runner = CliRunner()


def run_ok(*args):
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output + result.stderr
    return result


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps(ROOMS_SPEC))
    build = run_ok("build", spec, root / "domain.json")
    solve = run_ok("solve", root / "domain.json", root / "Z.csv")
    factor = run_ok("factor", root / "Z.csv", root / "fact",
                    "--k", 4, "--seed", 0, "--restarts", 3)
    return {"root": root, "spec": spec, "domain": root / "domain.json",
            "Z": root / "Z.csv", "fact": root / "fact",
            "echo": {"build": build.stdout, "solve": solve.stdout,
                     "factor": factor.stdout}}


def test_build_writes_domain_and_manifest(ws):
    assert "36 interior, 36 boundary" in ws["echo"]["build"]
    man = read_json(str(ws["domain"]) + ".manifest.json")
    assert man["command"] == "build"
    assert man["outputs"] == [str(ws["domain"])]
    want = "sha256:" + hashlib.sha256(ws["spec"].read_bytes()).hexdigest()
    assert man["inputs"][str(ws["spec"])] == want
    assert man["duration_seconds"] >= 0


def test_solve_records_parameters(ws):
    assert "36x36 desirability basis" in ws["echo"]["solve"]
    assert ws["Z"].read_text().splitlines()[0] == "36,36"
    man = read_json(str(ws["Z"]) + ".manifest.json")
    assert man["parameters"]["q_floor"] == 1e-12
    assert str(ws["domain"]) in man["inputs"]


def test_factor_outputs_and_manifest(ws):
    assert "normalized divergence" in ws["echo"]["factor"]
    for name in ("D.csv", "W.csv", "meta.json", "manifest.json"):
        assert (ws["fact"] / name).is_file()
    meta = read_json(ws["fact"] / "meta.json")
    assert meta["k"] == 4 and meta["seed"] == 0 and meta["restarts"] == 3
    man = read_json(ws["fact"] / "manifest.json")
    assert man["seeds"] == {"seed": 0}
    assert man["parameters"]["k"] == 4
    assert man["outputs"] == ["D.csv", "W.csv", "meta.json"]
    assert str(ws["Z"]) in man["inputs"]


def test_factor_rerun_is_byte_identical(ws):
    other = ws["root"] / "fact_rerun"
    run_ok("factor", ws["Z"], other, "--k", 4, "--seed", 0, "--restarts", 3)
    for name in ("D.csv", "W.csv", "meta.json"):
        assert (other / name).read_bytes() == (ws["fact"] / name).read_bytes()


def test_factor_overwrite_removes_stale_files(ws, tmp_path):
    out = tmp_path / "fact"
    out.mkdir()
    (out / "stale.svg").write_text("junk")
    run_ok("factor", ws["Z"], out, "--k", 2, "--restarts", 1,
           "--max-iter", 50)
    assert not (out / "stale.svg").exists()
    assert (out / "D.csv").is_file()


def test_select_k_prints_pick(ws, tmp_path):
    out = tmp_path / "curve.csv"
    result = run_ok("select_k", ws["Z"], out, "--kmax", 5,
                    "--restarts", 2, "--max-iter", 300)
    assert "k_star = " in result.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "k,f"
    assert len(lines) == 6
    assert (tmp_path / "curve.csv.manifest.json").is_file()


def test_hierarchy_command(ws, tmp_path):
    out = tmp_path / "stack"
    result = run_ok("hierarchy", ws["domain"], out, "--ks", "4,2",
                    "--alphas", "0.1,0.1", "--restarts", 2)
    assert "2 levels" in result.stdout
    for name in ("level_0", "level_1", "top.json", "hierarchy.json",
                 "manifest.json"):
        assert (out / name).exists()
    man = read_json(out / "manifest.json")
    assert man["parameters"]["ks"] == [4, 2]
    assert man["outputs"] == ["level_0", "level_1", "top.json",
                              "hierarchy.json"]


def test_analyze_purity_defaults_to_room_labels(ws, tmp_path):
    out = tmp_path / "purity.json"
    result = run_ok("analyze", ws["fact"], ws["spec"], out, "--mode", "purity")
    assert result.stdout.startswith("purity = ")
    report = read_json(out)
    assert 0.0 <= report["purity"] <= 1.0
    assert sum(report["cluster_sizes"]) == 36
    man = read_json(str(out) + ".manifest.json")
    assert man["parameters"] == {"mode": "purity", "labels": "rooms"}


def test_analyze_doorways(ws, tmp_path):
    out = tmp_path / "g.csv"
    result = run_ok("analyze", ws["fact"], ws["spec"], out,
                    "--mode", "doorways")
    assert "max g" in result.stdout
    assert out.read_text().splitlines()[0] == "state,g"


def test_analyze_compare_identical_runs(ws, tmp_path):
    out = tmp_path / "cmp.json"
    result = run_ok("analyze", ws["fact"], ws["spec"], out, "--mode", "compare",
                    "--against", ws["root"] / "fact_rerun")
    assert "equivalent" in result.stdout
    report = read_json(out)
    assert report["distance"] <= 1e-12 and report["equivalent"] is True


def test_analyze_compare_rejects_an_invalid_spec(ws, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**ROOMS_SPEC, "params": {**ROOMS_SPEC["params"], "bogus": 1}}))
    out = tmp_path / "cmp.json"
    result = runner.invoke(main, ["analyze", str(ws["fact"]), str(bad), str(out),
                                  "--mode", "compare", "--against", str(ws["fact"])])
    assert result.exit_code == 2
    assert "unknown rooms parameter 'bogus'" in result.stderr
    assert not out.exists()


def test_analyze_compare_requires_against(ws, tmp_path):
    result = runner.invoke(main, ["analyze", str(ws["fact"]), str(ws["spec"]),
                                  str(tmp_path / "cmp.json"),
                                  "--mode", "compare"])
    assert result.exit_code == 2
    assert "--against is required" in result.stderr


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_analyze_compare_non_finite_epsilon_exits_2(ws, tmp_path, epsilon):
    result = runner.invoke(main, ["analyze", str(ws["fact"]), str(ws["spec"]),
                                  str(tmp_path / "cmp.json"), "--mode", "compare",
                                  "--against", str(ws["fact"]), "--epsilon", epsilon])
    assert result.exit_code == 2
    assert "--epsilon must be a finite number" in result.stderr
    assert not (tmp_path / "cmp.json").exists()


def test_analyze_compare_epsilon_is_inclusive_and_nonnegative(ws, tmp_path):
    out = tmp_path / "cmp.json"
    args = ["analyze", ws["fact"], ws["spec"], out, "--mode", "compare",
            "--against", ws["fact"], "--epsilon"]
    result = runner.invoke(main, [str(a) for a in args] + ["-1"])
    assert result.exit_code == 2
    assert "--epsilon must be a finite number >= 0, got -1.0" in result.stderr
    assert not out.exists()
    assert "(equivalent at epsilon=0)" in run_ok(*args, 0).stdout
    assert read_json(out) == {"distance": 0.0, "epsilon": 0.0,
                              "compare_product": False, "equivalent": True}


def _broken_fact(ws, tmp_path, name, edit):
    """A copy of the workspace factorization with ``edit`` applied to one file."""
    bad = tmp_path / "bad_fact"
    bad.mkdir()
    for f in ("D.csv", "W.csv", "meta.json"):
        text = (ws["fact"] / f).read_text()
        (bad / f).write_text(edit(text) if f == name else text)
    return bad


@pytest.mark.parametrize("field, value, kind", [("divergence", None, "a number"),
                                                ("k", True, "an integer")])
def test_meta_json_of_the_wrong_type_exits_2(ws, tmp_path, field, value, kind):
    # "divergence": null once made render exit 1 with a TypeError traceback
    bad = _broken_fact(ws, tmp_path, "meta.json",
                       lambda t: json.dumps({**json.loads(t), field: value}))
    result = runner.invoke(main, ["render", str(bad), str(ws["spec"]), str(tmp_path / "svg")])
    assert result.exit_code == 2, result.output
    assert f"meta.json: field '{field}' must be {kind}, got {value!r}" in result.stderr


@pytest.mark.parametrize("fields", [{"beta": "NaN", "divergence": "Infinity"},
                                    {"divergence": "-Infinity"}, {"beta": "1e999"}])
def test_meta_json_with_a_non_finite_number_exits_2(ws, tmp_path, fields):
    # "beta": NaN, "divergence": Infinity once made analyze exit 0
    def edit(text):
        meta = {**json.loads(text), **{key: f"@{key}@" for key in fields}}
        text = json.dumps(meta)
        for key, token in fields.items():
            text = text.replace(f'"@{key}@"', token)
        return text

    bad = _broken_fact(ws, tmp_path, "meta.json", edit)
    out = tmp_path / "p.json"
    result = runner.invoke(main, ["analyze", str(bad), str(ws["spec"]), str(out),
                                  "--mode", "purity"])
    assert result.exit_code == 2, result.output
    assert f"{bad / 'meta.json'}: " in result.stderr
    assert "JSON numbers must be finite" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", ["D.csv", "W.csv"])
@pytest.mark.parametrize("value", ["nan", "-0.5", "inf"])
def test_non_finite_or_negative_factor_exits_2(ws, tmp_path, name, value):
    # a NaN in W.csv once gave exit 0 and NaN doorway scores
    def edit(text):
        lines = text.splitlines()
        lines[1] = ",".join([value] + lines[1].split(",")[1:])
        return "\n".join(lines) + "\n"

    bad = _broken_fact(ws, tmp_path, name, edit)
    out = tmp_path / "g.csv"
    result = runner.invoke(main, ["analyze", str(bad), str(ws["spec"]), str(out),
                                  "--mode", "doorways"])
    assert result.exit_code == 2, result.output
    assert f"{bad / name}: entries must be finite and nonnegative" in result.stderr
    assert not out.exists()


def test_analyze_purity_needs_labels_without_default(ws, tmp_path):
    ring_spec = tmp_path / "ring.json"
    ring_spec.write_text(json.dumps({"type": "ring", "params": {"n": 8}}))
    result = runner.invoke(main, ["analyze", str(ws["fact"]), str(ring_spec),
                                  str(tmp_path / "p.json"), "--mode", "purity"])
    assert result.exit_code == 2
    assert "pass --labels" in result.stderr


def test_render_command(ws, tmp_path):
    out = tmp_path / "heatmaps"
    result = run_ok("render", ws["fact"], ws["spec"], out)
    assert "4 heatmaps" in result.stdout
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert svgs == [f"subtask_0{t}.svg" for t in range(4)]
    assert (out / "manifest.json").is_file()


def test_invalid_spec_exits_2(ws, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "maze"}))
    result = runner.invoke(main, ["build", str(bad), str(tmp_path / "d.json")])
    assert result.exit_code == 2
    assert "field 'type'" in result.stderr

    bad.write_text(json.dumps({**ROOMS_SPEC, "gamma": 1.0}))
    result = runner.invoke(main, ["build", str(bad), str(tmp_path / "d.json")])
    assert result.exit_code == 2
    assert "unknown domain config field 'gamma'" in result.stderr


@pytest.mark.parametrize("kind,params", [
    ("taxi", {"walls": [[0, 1]]}),
    ("rooms", {"room_rows": [1], "room_cols": 2, "room_size": 3}),
    ("ring", {"n": float("inf")}),
    ("taxi", {"depots": [[0, float("inf")], [0, 1], [1, 0], [1, 1]]}),
])
def test_spec_parameter_of_wrong_type_exits_2(tmp_path, kind, params):
    spec = {"type": kind, "params": params}
    with pytest.raises(ValueError, match=f"^{kind} spec:"):
        parse_domain_config(spec)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    result = runner.invoke(main, ["build", str(bad), str(tmp_path / "d.json")])
    assert result.exit_code == 2
    # an infinity in a file stops at the JSON reader, before the spec parser
    if "Infinity" in bad.read_text():
        assert f"{bad}: got Infinity, but JSON numbers must be finite" in result.stderr
    else:
        assert f"{kind} spec:" in result.stderr


@pytest.mark.parametrize("spec,field", [
    ({**ROOMS_SPEC, "params": {**ROOMS_SPEC["params"], "room_rows": 2.7}}, "room_rows"),
    ({**ROOMS_SPEC, "params": {**ROOMS_SPEC["params"], "room_rows": "3"}}, "room_rows"),
    ({**ROOMS_SPEC, "params": {**ROOMS_SPEC["params"], "room_rows": True}}, "room_rows"),
    ({**ROOMS_SPEC, "params": {**ROOMS_SPEC["params"], "room_size": 3.0}}, "room_size"),
    ({"type": "taxi", "params": {"grid_side": 5.0}}, "grid_side"),
    ({"type": "ring", "params": {"n": 4.9}}, "n"),
    ({"type": "taxi", "params": {"depots": [[0.5, 0], [0, 4], [4, 0], [4, 4]]}}, "depots"),
    ({"type": "taxi", "params": {"walls": [[[0, 1.0], [0, 2]]]}}, "walls"),
    ({"type": "ring", "params": {"n": 4}, "r_step": "-1"}, "r_step"),
    ({"type": "ring", "params": {"n": 4}, "lambda": True}, "lambda"),
    ({"type": "ring", "params": {"n": 4}, "r_step": 10 ** 400}, "r_step"),
    ({"type": "ring", "params": {"n": 4, "twin_weight": "0.5"}}, "twin_weight"),
    ({"type": "ring", "params": {"n": 4, "twin_weight": False}}, "twin_weight"),
])
def test_spec_value_of_wrong_type_exits_2_naming_it(tmp_path, spec, field):
    # counts are JSON integers and the other numbers JSON numbers: nothing
    # is rounded, parsed from a string or read from a bool
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    result = runner.invoke(main, ["build", str(bad), str(tmp_path / "d.json")])
    assert result.exit_code == 2
    assert f"'{field}'" in result.stderr
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("weight", [5, 0])
@pytest.mark.parametrize("command", ["build", "render", "purity", "compare"])
def test_twin_weight_out_of_range_exits_2_naming_it(ws, tmp_path, command, weight):
    # every command that reads a spec checks the twin weight's range, not
    # only the one that builds the domain
    spec = tmp_path / "spec.json"
    params = {**ROOMS_SPEC["params"], "twin_weight": weight}
    spec.write_text(json.dumps({**ROOMS_SPEC, "params": params}))
    out = tmp_path / "out"
    args = {
        "build": ["build", spec, out],
        "render": ["render", ws["fact"], spec, out],
        "purity": ["analyze", ws["fact"], spec, out, "--mode", "purity"],
        "compare": ["analyze", ws["fact"], spec, out, "--mode", "compare",
                    "--against", ws["fact"]],
    }[command]
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 2
    assert f"field 'twin_weight' must lie in (0, 1), got {weight}" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("field", ["r_step", "lambda"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_spec_number_exits_2(tmp_path, field, value):
    spec = {"type": "ring", "params": {"n": 4}, field: value}
    with pytest.raises(ValueError, match="'r_step' and 'lambda' must be finite"):
        parse_domain_config(spec)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    result = runner.invoke(main, ["build", str(bad), str(tmp_path / "d.json")])
    assert result.exit_code == 2
    assert "must be finite" in result.stderr
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("kind,params,states", [
    ("ring", {"n": 10 ** 9}, 10 ** 9),
    ("rooms", {"room_rows": 2, "room_cols": 2, "room_size": 10 ** 5}, 4 * 10 ** 10),
    ("taxi", {"grid_side": 10 ** 4}, 5 * 10 ** 8),
])
def test_oversized_spec_exits_2_at_once(tmp_path, kind, params, states):
    # the spec is refused from its fields alone, before any state is built
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"type": kind, "params": params}))
    t0 = time.perf_counter()
    result = runner.invoke(main, ["build", str(bad), str(tmp_path / "d.json")])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2
    assert f"{kind} spec: {states} interior states exceed the limit of 16384" in result.stderr
    assert not (tmp_path / "d.json").exists()


def _two_element_triplet(d):
    d["P_ii"]["triplets"][0] = d["P_ii"]["triplets"][0][:2]


def _fractional_index(d):
    d["P_ii"]["triplets"][0][0] = 0.6


def _short_rewards(d):
    d["r_interior"] = [-1.0]


def _scaled_dynamics(d):
    for t in d["P_ii"]["triplets"]:
        t[2] *= 1.4


def _nan_dynamics(d):
    d["P_ii"]["triplets"][0][2] = float("nan")


def _bool_index(d):
    d["P_ii"]["triplets"][0][0] = True


def _huge_rewards(d):
    d["r_interior"][1] = 10 ** 400


def _huge_dynamics(d):
    d["P_ii"]["triplets"][0][2] = 10 ** 400


def _wrong_type(field, value):
    return pytest.param(lambda d: d.update({field: value}),
                        f"LMDP JSON field '{field}'", id=f"{field}={value}")


@pytest.mark.parametrize("corrupt,match", [
    (_two_element_triplet, r"\[row, col, value\]"),
    (_fractional_index, "integer row and col"),
    (_short_rewards, "r_interior has shape"),
    (_scaled_dynamics, "column 0 sums to"),
    _wrong_type("n_interior", None),
    _wrong_type("n_boundary", None),
    _wrong_type("lambda", None),
    _wrong_type("labels", 5),
    (_bool_index, "integer row and col"),
    # a NaN stops at the JSON reader; validate_lmdp's NaN check is tested
    # in process
    (_nan_dynamics, "got NaN, but JSON numbers must be finite"),
    _wrong_type("n_interior", 4.9),
    _wrong_type("n_boundary", False),
    _wrong_type("lambda", True),
    _wrong_type("labels", "abcdefgh"),
    _wrong_type("r_interior", [True, False, True, True]),
    # an integer past the float range is not a number
    pytest.param(lambda d: d.update({"lambda": 10 ** 400}), "field 'lambda' must be a number",
                 id="lambda=10**400"),
    pytest.param(_huge_rewards, "field 'r_interior' must be a list of numbers",
                 id="r_interior=10**400"),
    pytest.param(_huge_dynamics, "P_ii: .*a number value", id="P_ii=10**400"),
])
def test_solve_rejects_invalid_lmdp(tmp_path, corrupt, match):
    d = lmdp_to_json_dict(build_ring(RingSpec(4)))
    corrupt(d)
    bad = tmp_path / "lmdp.json"
    bad.write_text(json.dumps(d))
    result = runner.invoke(main, ["solve", str(bad), str(tmp_path / "Z.csv")])
    assert result.exit_code == 2
    assert re.search(match, result.stderr)
    assert not (tmp_path / "Z.csv").exists()


def test_non_finite_beta_exits_2(ws, tmp_path):
    result = runner.invoke(main, ["factor", str(ws["Z"]), str(tmp_path / "f"),
                                  "--k", "2", "--beta", "nan"])
    assert result.exit_code == 2
    assert "beta must be a finite number" in result.stderr


def test_impossible_rank_exits_3(ws, tmp_path):
    result = runner.invoke(main, ["factor", str(ws["Z"]),
                                  str(tmp_path / "f"), "--k", "99"])
    assert result.exit_code == 3
    assert "k must lie in" in result.stderr


def test_non_finite_fit_exits_3(tmp_path):
    # the entries span more than the KL fit can carry: its value overflows
    (tmp_path / "Z.csv").write_text("2,2\n1.7e308,1.0\n2.0,3.0\n")
    result = runner.invoke(main, ["factor", str(tmp_path / "Z.csv"), str(tmp_path / "f"),
                                  "--k", "1"])
    assert result.exit_code == 3
    assert "not finite" in result.stderr
    assert not (tmp_path / "f").exists()


def test_alpha_out_of_range_exits_2(ws, tmp_path):
    result = runner.invoke(main, ["hierarchy", str(ws["domain"]),
                                  str(tmp_path / "h"), "--ks", "4,2",
                                  "--alphas", "0.1,50", "--restarts", "1",
                                  "--max-iter", "50"])
    assert result.exit_code == 2
    assert "level 1:" in result.stderr and "outside" in result.stderr


def test_bad_flag_lists_exit_2(ws, tmp_path):
    result = runner.invoke(main, ["hierarchy", str(ws["domain"]),
                                  str(tmp_path / "h"), "--ks", "4,two"])
    assert result.exit_code == 2
    assert "--ks must be comma-separated integers" in result.stderr


def test_missing_input_is_usage_error(tmp_path):
    result = runner.invoke(main, ["build", str(tmp_path / "nope.json"),
                                  str(tmp_path / "d.json")])
    assert result.exit_code == 2


def test_version_flag():
    result = run_ok("--version")
    assert "subtask-forge" in result.stdout


SOLVE_DOMAINS = {
    "rooms": lambda: benchmark_rooms(2, 2, 3),
    "taxi": benchmark_taxi,
    "ring": lambda: build_ring(RingSpec(16), lam=2.0),
}


@pytest.mark.parametrize("writer", ["serial", "forked"])
@pytest.mark.parametrize("block_entries", [lmdp_core.SOLVE_BLOCK_ENTRIES, 4])
@pytest.mark.parametrize("domain", sorted(SOLVE_DOMAINS))
def test_solve_through_the_spill_writes_the_in_memory_bytes(
        tmp_path, monkeypatch, request, domain, block_entries, writer):
    save_lmdp(tmp_path / "domain.json", SOLVE_DOMAINS[domain]())
    monkeypatch.setattr(lmdp_core, "SOLVE_BLOCK_ENTRIES", block_entries)
    if writer == "forked":
        forks = request.getfixturevalue("two_cpus")
        monkeypatch.setattr(fileio, "_FORK_MIN_ENTRIES", 1)
    else:
        monkeypatch.setattr(fileio.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    out = tmp_path / "out"
    run_ok("solve", tmp_path / "domain.json", out / "Z.csv")
    write_matrix_csv(tmp_path / "ref.csv", solve_task_basis(load_lmdp(tmp_path / "domain.json")))
    assert (out / "Z.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["Z.csv", "Z.csv.manifest.json"]
    if writer == "forked":
        assert len(forks) == 2  # the solve's writer, then the reference's


@pytest.mark.parametrize("writer", ["serial", "forked"])
def test_failing_task_leaves_no_output_and_no_spill(tmp_path, monkeypatch, request, writer):
    # a positive step reward makes the weighted dynamics non-contractive
    save_lmdp(tmp_path / "domain.json", build_ring(RingSpec(4), r_step=5.0, lam=1.0))
    if writer == "forked":
        request.getfixturevalue("two_cpus")
        monkeypatch.setattr(fileio, "_FORK_MIN_ENTRIES", 1)
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, ["solve", str(tmp_path / "domain.json"), str(out / "Z.csv")])
    assert result.exit_code == 3
    assert re.search(r"task \d+: .*non-positive", result.stderr)
    assert list(out.iterdir()) == []


def test_solve_command_holds_no_basis(tmp_path, monkeypatch):
    # rooms 8x8x5, the large-io domain: a 1600 x 1600 basis, 20 MB; the
    # solve held it whole so that the writer could take its rows
    save_lmdp(tmp_path / "domain.json", benchmark_rooms(8, 8, 5))
    monkeypatch.setattr(fileio.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    from scipy.sparse.linalg import splu  # noqa: F401 -- imported before tracing

    z_bytes = 1600 * 1600 * 8
    tracemalloc.start()
    try:
        run_ok("solve", tmp_path / "domain.json", tmp_path / "Z.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fileio.read_matrix_csv(tmp_path / "Z.csv").shape == (1600, 1600)
    assert peak <= 0.25 * z_bytes, f"peak {peak / z_bytes:.2f} x Z.nbytes"
