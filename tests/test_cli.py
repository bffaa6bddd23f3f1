"""End-to-end command tests through click's CliRunner.

A module-scoped workspace runs build -> solve -> factor once on a small
rooms domain; the other commands and the failure modes reuse its artifacts.
"""

import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from subtask_forge.cli import main
from subtask_forge.domains import RingSpec, build_ring
from subtask_forge.fileio import read_json
from subtask_forge.lmdp_core import lmdp_to_json_dict

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
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": kind, "params": params}))
    result = runner.invoke(main, ["build", str(bad), str(tmp_path / "d.json")])
    assert result.exit_code == 2
    assert f"{kind} spec:" in result.stderr


@pytest.mark.parametrize("field", ["r_step", "lambda"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_spec_number_exits_2(tmp_path, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "ring", "params": {"n": 4}, field: value}))
    result = runner.invoke(main, ["build", str(bad), str(tmp_path / "d.json")])
    assert result.exit_code == 2
    assert "must be finite" in result.stderr
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
    (_nan_dynamics, "P_ii has a NaN entry"),
    _wrong_type("n_interior", 4.9),
    _wrong_type("n_boundary", False),
    _wrong_type("lambda", True),
    _wrong_type("labels", "abcdefgh"),
    _wrong_type("r_interior", [True, False, True, True]),
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
