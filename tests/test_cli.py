"""Tests for the command-line front end: scenario validation, subcommand
behavior, exit codes, and report determinism."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qdweight.analyze import WINDOWED_REASON
from qdweight.cli import (
    SCENARIO_SCHEMA,
    CliError,
    grid_scenarios,
    load_scenario,
    main,
    run_suite,
)

F9_FIELD = {"kind": "EXT_FIELD", "p": 3, "f": [1, 0, 1], "q": "2"}
F3_FIELD = {"kind": "PRIME_FIELD", "p": 3, "q": "2"}
QQ_FIELD = {"kind": "RATIONAL", "q": "2"}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def scenario(field, name, params, window=None):
    out = {
        "schema": "1",
        "action": "construct",
        "field": field,
        "family": {"name": name, "params": params},
    }
    if window is not None:
        out["window"] = list(window)
    return out


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def build_module_file(tmp_path, stem, sc, capsys):
    scenario_path = write_json(tmp_path / f"{stem}_scenario.json", sc)
    module_path = str(tmp_path / f"{stem}.json")
    code, _, err = run_cli(["construct", "--scenario", scenario_path, "--out", module_path], capsys)
    assert code == 0, err
    return module_path


@pytest.fixture
def twisted_file(tmp_path, capsys):
    sc = scenario(F9_FIELD, "VQ_F_B_A", {"f": "2", "b": "[0,1]", "a": "[0,1]"})
    return build_module_file(tmp_path, "twisted", sc, capsys)


@pytest.fixture
def remark_file(tmp_path, capsys):
    return build_module_file(tmp_path, "remark", scenario(F3_FIELD, "REMARK_136", {}), capsys)


# construct


def test_construct_writes_canonical_module(tmp_path, capsys, twisted_file):
    raw = json.loads(open(twisted_file).read())
    assert raw["kind"] == "CIRCULAR"
    # q is stored in the field's canonical encoding: [2] as a degree-0 polynomial
    assert raw["field"] == dict(F9_FIELD, q="[2]")
    assert [s["dim"] for s in raw["spaces"]] == [1] * 6
    # canonical: reserializing with sorted keys reproduces the bytes
    text = open(twisted_file).read().strip()
    assert text == json.dumps(raw, sort_keys=True, separators=(",", ":"))


def test_construct_to_stdout_is_loadable(tmp_path, capsys):
    sc = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    path = write_json(tmp_path / "s.json", sc)
    code, out, _ = run_cli(["construct", "--scenario", path], capsys)
    assert code == 0
    from qdweight.wmod import make_module

    V = make_module(json.loads(out))
    assert V.total_dim() == 5


def test_construct_rejects_invalid_scenarios(tmp_path, capsys):
    bad_schema = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    bad_schema["schema"] = "2"
    path = write_json(tmp_path / "bad1.json", bad_schema)
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2 and "invalid" in err

    wrong_action = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    wrong_action["action"] = "verify"
    path = write_json(tmp_path / "bad2.json", wrong_action)
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2 and "construct" in err

    unknown_key = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    unknown_key["extra"] = 1
    path = write_json(tmp_path / "bad3.json", unknown_key)
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2

    bad_params = scenario(QQ_FIELD, "VQ_B_A", {"b": "2", "a": "1/2"}, (-2, 2))
    path = write_json(tmp_path / "bad4.json", bad_params)
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2 and "q-power" in err

    code, _, err = run_cli(["construct", "--scenario", str(tmp_path / "missing.json")], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "field, order",
    [
        ({"kind": "PRIME_FIELD", "p": 65537, "q": "3"}, 65537),
        ({"kind": "EXT_FIELD", "p": 257, "f": [3, 0, 1], "q": "2"}, 66049),
    ],
)
def test_field_over_the_order_cap_exits_2(tmp_path, capsys, field, order):
    path = write_json(tmp_path / "big.json", scenario(field, "REMARK_136", {}))
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2
    assert err.strip() == f"error: bad field spec: field order {order} is over the limit of 65536"

    module = {"field": field, "kind": "CIRCULAR"}
    path = write_json(tmp_path / "big_module.json", module)
    code, _, err = run_cli(["analyze", path, "--checks", "end"], capsys)
    assert code == 2 and "is invalid" in err and f"field order {order} is over" in err


def test_orbit_over_the_length_cap_exits_2(tmp_path, capsys):
    # lcm(1009, 1008) and lcm(65521, 65520) are over the orbit-length cap;
    # both fields are under the order cap, and both are refused before any
    # point of the orbit is built
    field = {"kind": "PRIME_FIELD", "p": 1009, "q": "11"}
    path = write_json(tmp_path / "long.json", scenario(field, "VQ_F_B_A", {"f": "1", "b": "1", "a": "1"}))
    start = time.perf_counter()
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == "error: cannot construct: orbit length 1017072 is over the limit of 65536"

    module = {"field": {"kind": "PRIME_FIELD", "p": 65521, "q": "17"}, "base": ["1", "1"], "kind": "CIRCULAR"}
    path = write_json(tmp_path / "long_module.json", module)
    start = time.perf_counter()
    code, _, err = run_cli(["analyze", path, "--checks", "dims"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == f"error: module {path} is invalid: orbit length 4292935920 is over the limit of 65536"


def test_chain_over_the_size_cap_exits_2(tmp_path, capsys):
    # CHAIN_ALT m=62 over F9 (r = 6) would store 3 * 6 * 62^2 = 69192 entries
    field = {"kind": "EXT_FIELD", "p": 3, "f": [1, 0, 1], "q": "2"}
    path = write_json(tmp_path / "big.json", scenario(field, "CHAIN_ALT", {"m": 62, "a": ["1"] * 62}))
    start = time.perf_counter()
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == "error: cannot construct: CHAIN_CYCLE would store 69192 matrix entries, over the limit of 65536"


def test_window_over_the_width_cap_exits_2(tmp_path, capsys):
    # 70001 offsets is over the cap; both are refused before any point or
    # label is built
    sc = scenario(QQ_FIELD, "V1_A_B", {"a": "1/2", "b": "3"}, (0, 70000))
    path = write_json(tmp_path / "wide.json", sc)
    start = time.perf_counter()
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == "error: cannot construct: window width 70001 is over the limit of 65536"

    module = {"field": QQ_FIELD, "base": ["1/2", "3"], "kind": "INFINITE", "window": [0, 70000]}
    path = write_json(tmp_path / "wide_module.json", module)
    start = time.perf_counter()
    code, _, err = run_cli(["analyze", path, "--checks", "dims"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == f"error: module {path} is invalid: window width 70001 is over the limit of 65536"


@pytest.mark.parametrize(
    "argv",
    [
        # q^500 * 3 has more digits than Python turns into a string
        [
            "construct",
            "--scenario",
            scenario({"kind": "RATIONAL", "q": "1000000000"}, "V1_A_B", {"a": "1/2", "b": "3"}, (0, 500)),
        ],
        ["realize", "--field", "EXT_FIELD", "--p", "3", "--fpoly", "1,x", "--N", "3"],
    ],
    ids=["construct-huge-scalar", "realize-bad-fpoly"],
)
def test_value_errors_anywhere_exit_2(tmp_path, argv):
    argv = list(argv)
    if isinstance(argv[2], dict):
        argv[2] = write_json(tmp_path / "s.json", argv[2])
    out = subprocess.run([sys.executable, "-m", "qdweight", *argv], capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_longest_ladder_orbit_builds(tmp_path, capsys):
    # PRIME_FIELD p=11 q=2: lcm(11, 10) = 110, the longest orbit on the size ladder
    field = {"kind": "PRIME_FIELD", "p": 11, "q": "2"}
    path = write_json(tmp_path / "p11.json", scenario(field, "CHAIN_ALT", {"m": 2, "a": ["1", "1"]}))
    code, out, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 0, err
    raw = json.loads(out)
    assert raw["kind"] == "CIRCULAR"
    assert [s["offset"] for s in raw["spaces"]] == list(range(110))


@pytest.mark.parametrize(
    "key, value",
    [
        ("algebra", "D"),
        ("checks", ["dims"]),
        ("seed", 0),
        ("budgets", {"lines": 10}),
        ("N", 8),
    ],
)
def test_construct_scenarios_carry_only_what_construct_reads(tmp_path, capsys, key, value):
    sc = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    sc[key] = value
    path = write_json(tmp_path / "s.json", sc)
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2 and "invalid" in err and repr(key) in err


def test_readme_scenario_example_constructs(tmp_path, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    path = write_json(tmp_path / "s.json", json.loads(block))
    code, out, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 0, err
    assert json.loads(out)["kind"] == "CIRCULAR"


def test_scenario_top_level_q_must_agree(tmp_path, capsys):
    sc = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    sc["q"] = "3"
    path = write_json(tmp_path / "s.json", sc)
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2 and "disagrees" in err

    sc["q"] = "2"
    path = write_json(tmp_path / "s2.json", sc)
    code, _, _ = run_cli(["construct", "--scenario", path], capsys)
    assert code == 0


# verify


def test_verify_pass_and_fail_exit_codes(capsys, twisted_file, remark_file):
    code, out, _ = run_cli(["verify", twisted_file, "--algebra", "D"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = run_cli(["verify", remark_file], capsys)
    assert code == 1
    report = json.loads(out)
    (violation,) = report["violations"]
    assert violation["relation"] == "Y1X=qsigma-1"
    assert violation["offset"] == 2
    assert violation["label"] == "v3"


def test_verify_flavor_restriction(capsys, remark_file):
    # the defect lives on the sigma side; the tau-side relations pass
    code, out, _ = run_cli(["verify", remark_file, "--algebra", "A1"], capsys)
    assert code == 0 and json.loads(out)["passed"] is True
    code, _, _ = run_cli(["verify", remark_file, "--algebra", "AQ"], capsys)
    assert code == 1


def test_verify_bad_module_file(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", {"field": QQ_FIELD})
    code, _, err = run_cli(["verify", path], capsys)
    assert code == 2 and "invalid" in err


@pytest.mark.parametrize(
    "key, value",
    [("base", ["1"]), ("window", [0]), ("field", "RATIONAL"), ("edge_flags", "yes")],
)
def test_malformed_module_file_exits_2(tmp_path, key, value):
    raw = {"field": QQ_FIELD, "base": ["1", "1"], "window": [0, 2], key: value}
    path = write_json(tmp_path / "m.json", raw)
    out = subprocess.run([sys.executable, "-m", "qdweight", "verify", path], capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: module {path} is invalid: {key} must be")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("where", ["base", "q", "matrix"])
def test_non_string_field_element_exits_2(tmp_path, where):
    raw = {
        "field": {"kind": "PRIME_FIELD", "p": 7, "q": "2"},
        "base": ["1", "1"],
        "spaces": [{"offset": 0, "dim": 1}, {"offset": 1, "dim": 1}],
        "ops": {"X": [{"offset": 0, "matrix": [["1"]]}]},
    }
    if where == "base":
        raw["base"] = [1.5, "1"]
    elif where == "q":
        raw["q"] = 3
    else:
        raw["ops"]["X"][0]["matrix"] = [[1]]
    path = write_json(tmp_path / "m.json", raw)
    out = subprocess.run([sys.executable, "-m", "qdweight", "verify", path], capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("matrix", [["3"], "3", [["1"], "2"]])
def test_string_matrix_row_exits_2(tmp_path, matrix):
    # a row given as a string was read entry by entry: ["3"] loaded as [[3]]
    raw = {
        "field": {"kind": "PRIME_FIELD", "p": 7, "q": "2"},
        "base": ["1", "1"],
        "spaces": [{"offset": 0, "dim": len(matrix)}, {"offset": 1, "dim": len(matrix)}],
        "ops": {"X": [{"offset": 0, "matrix": matrix}]},
    }
    path = write_json(tmp_path / "m.json", raw)
    out = subprocess.run([sys.executable, "-m", "qdweight", "verify", path], capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: module {path} is invalid: a matrix must be a list of rows")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "space, ops, message",
    [
        ({"offset": 0, "dim": 2, "labels": "ab"}, {}, "offset 0: labels must be a list of strings"),
        ({"offset": 0, "dim": 2, "labels": [1, 2]}, {}, "offset 0: labels must be a list of strings"),
        ({"offset": True, "dim": True}, {}, "an offset must be an integer, got True"),
        ({"offset": 0, "dim": 1.9}, {}, "a dim must be an integer, got 1.9"),
        ({"offset": 0, "dim": 1}, {"X": [{"offset": "0", "matrix": [["1"]]}]}, "an offset must be an integer, got '0'"),
    ],
    ids=["labels-string", "labels-not-strings", "bool-offset-and-dim", "float-dim", "string-op-offset"],
)
def test_malformed_space_exits_2(tmp_path, space, ops, message):
    # int() read true and 1.9 as 1, and a labels string letter by letter
    raw = {
        "field": {"kind": "PRIME_FIELD", "p": 7, "q": "2"},
        "base": ["1", "1"],
        "spaces": [space, {"offset": 1, "dim": 1}],
        "ops": ops,
    }
    path = write_json(tmp_path / "m.json", raw)
    out = subprocess.run(
        [sys.executable, "-m", "qdweight", "analyze", path, "--checks", "dims"], capture_output=True, text=True
    )
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: module {path} is invalid: {message}")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "spaces, ops, message",
    [
        ({"offset": 0, "dim": 1}, {}, "spaces must be a list of objects"),
        ([3], {}, "spaces must be a list of objects"),
        ([{"offset": 0}], {}, "an entry of spaces has no dim"),
        ([{"dim": 1}], {}, "an entry of spaces has no offset"),
        ([{"offset": 0, "dim": 1}], {"X": {"offset": 0, "matrix": [["1"]]}}, "ops.X must be a list of objects"),
        ([{"offset": 0, "dim": 1}], {"X": [{"offset": 0}]}, "an entry of ops.X has no matrix"),
    ],
    ids=["spaces-object", "spaces-int", "space-no-dim", "space-no-offset", "ops-object", "op-no-matrix"],
)
def test_malformed_spaces_and_ops_name_the_field(tmp_path, capsys, spaces, ops, message):
    # these ended in bare Python messages such as "'int' object is not subscriptable"
    raw = {"field": {"kind": "PRIME_FIELD", "p": 7, "q": "2"}, "base": ["1", "1"], "spaces": spaces, "ops": ops}
    path = write_json(tmp_path / "m.json", raw)
    code, out, err = run_cli(["analyze", path, "--checks", "dims"], capsys)
    assert code == 2 and out == ""
    assert err.strip() == f"error: module {path} is invalid: {message}"


# analyze


def test_analyze_affirmative(capsys, twisted_file):
    code, out, _ = run_cli(
        ["analyze", twisted_file, "--checks", "dims,equidim,irreducible,indecomposable,decompose,end", "--seed", "7"],
        capsys,
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks["dims"]["dims"] == [[k, 1] for k in range(6)]
    assert checks["equidim"]["verdict"] == "YES"
    assert checks["irreducible"]["verdict"] == "YES"
    assert checks["indecomposable"]["verdict"] == "YES"
    assert checks["decompose"]["count"] == 1
    assert checks["end"]["dim"] == 1


def test_analyze_negative_verdict_exits_1(capsys, remark_file):
    code, out, _ = run_cli(["analyze", remark_file, "--checks", "equidim"], capsys)
    assert code == 1
    raw = json.loads(out)["checks"]["equidim"]
    assert raw["verdict"] == "NO"
    assert raw["witness"]["offsets"] == [0, 3]


def test_analyze_undecided_exits_3(tmp_path, capsys):
    sc = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    path = build_module_file(tmp_path, "line", sc, capsys)
    code, out, _ = run_cli(["analyze", path, "--checks", "equidim,indecomposable"], capsys)
    assert code == 3
    checks = json.loads(out)["checks"]
    assert checks["equidim"]["verdict"] == "NOT_APPLICABLE"
    assert checks["indecomposable"]["verdict"] == "NOT_APPLICABLE"


def test_analyze_rejects_unknown_check(capsys, twisted_file):
    code, _, err = run_cli(["analyze", twisted_file, "--checks", "spectra"], capsys)
    assert code == 2 and "spectra" in err


def test_analyze_rejects_unknown_check_before_running_any(capsys, monkeypatch, twisted_file):
    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr("qdweight.cli.endomorphisms", fail)
    code, out, err = run_cli(["analyze", twisted_file, "--checks", "end,bogus"], capsys)
    assert code == 2 and out == ""
    assert err.strip() == "error: unknown check 'bogus'"


def test_analyze_windowed_end_and_decompose_not_applicable(tmp_path, capsys):
    sc = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    path = build_module_file(tmp_path, "line", sc, capsys)
    code, out, _ = run_cli(["analyze", path, "--checks", "end,decompose"], capsys)
    assert code == 3
    checks = json.loads(out)["checks"]
    for name in ("end", "decompose"):
        assert checks[name] == {"verdict": "NOT_APPLICABLE", "reason": WINDOWED_REASON}


# extend


def test_extend_subcommand_roundtrip(tmp_path, capsys, twisted_file):
    from qdweight.wmod import make_module, restrict

    V = restrict(make_module(json.loads(open(twisted_file).read())), "AQ")
    path = write_json(tmp_path / "aq.json", V.to_json())
    code, out, _ = run_cli(["extend", path], capsys)
    assert code == 0
    raw = json.loads(out)
    assert raw["kind"] == "UNIQUE" and raw["missing"] == "Y"


def test_extend_impossible_exits_1(tmp_path, capsys):
    from qdweight.wmod import construct_gwa, with_breaks
    from qdweight.basering import WeightPoint
    from qdweight.fields import FieldSpec, make_field

    QQ = make_field(FieldSpec(kind="RATIONAL", q="2"))
    base = WeightPoint(QQ.one, QQ.parse("1/2"))
    V = construct_gwa("AQ", with_breaks([0, 1], []), base, (-3, 3), QQ)
    path = write_json(tmp_path / "broken.json", V.to_json())
    code, out, _ = run_cli(["extend", path], capsys)
    assert code == 1
    raw = json.loads(out)
    assert raw["kind"] == "IMPOSSIBLE"
    assert raw["conflict"] == {"relation": "YX=tau", "offset": 0, "equation": {"lhs": "0", "rhs": "1"}}


def test_extend_precondition_exits_2(capsys, twisted_file):
    code, _, err = run_cli(["extend", twisted_file], capsys)
    assert code == 2 and "both" in err


# iso


def test_iso_yes_no_unknown_exit_codes(tmp_path, capsys, twisted_file):
    partner = build_module_file(
        tmp_path, "partner", scenario(F9_FIELD, "V1_F_A_B", {"f": "2", "a": "[0,1]", "b": "[0,1]"}), capsys
    )
    code, out, _ = run_cli(["iso", twisted_file, partner, "--algebra", "D"], capsys)
    assert code == 0
    assert json.loads(out)["witness"]["kind"] == "intertwiner"

    other = build_module_file(
        tmp_path, "other", scenario(F9_FIELD, "VQ_F_B_A", {"f": "[0,1]", "b": "[0,1]", "a": "[0,1]"}), capsys
    )
    code, out, _ = run_cli(["iso", twisted_file, other], capsys)
    assert code == 1
    assert json.loads(out)["witness"]["kind"] == "no_invertible_intertwiner"


def test_iso_usage_error_on_mismatched_orbits(tmp_path, capsys, twisted_file, remark_file):
    code, _, err = run_cli(["iso", twisted_file, remark_file], capsys)
    assert code == 2 and "field" in err


# realize


def test_realize_function_field_report(capsys):
    code, out, _ = run_cli(["realize", "--field", "FUNCTION_FIELD", "--N", "8"], capsys)
    assert code == 0
    raw = json.loads(out)
    assert raw["passed"] is True
    assert raw["degree_bound"] == 8
    # the q-derivative of x^2 is (t+1)x; the plain derivative of x^3 is 3x^2
    assert raw["matrices"]["d1"][1][2] == "[1,1]|[1]"
    assert raw["matrices"]["d"][2][3] == "[3]|[1]"


def test_realize_rejects_q_one(capsys):
    code, _, err = run_cli(["realize", "--field", "RATIONAL", "--q", "1", "--N", "4"], capsys)
    assert code == 2 and "q = 1" in err


# suite


def test_grid_covers_every_family_and_field_kind():
    rows = grid_scenarios()
    assert len(rows) >= 20
    names = {r["family"]["name"] for r in rows}
    from qdweight.families import FAMILY_NAMES

    assert names == set(FAMILY_NAMES) - {"REMARK_136"}
    kinds = {r["field"]["kind"] for r in rows}
    assert kinds == {"RATIONAL", "FUNCTION_FIELD", "CYCLOTOMIC", "EXT_FIELD"}
    # every scenario validates against the published schema
    import jsonschema

    for r in rows:
        jsonschema.validate(r, SCENARIO_SCHEMA)


def test_suite_report_passes_and_is_deterministic(capsys):
    report = run_suite(42)
    assert report["passed"] is True
    assert report["summary"]["total"] == len(report["rows"])
    again = run_suite(42)
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_suite_subprocess_byte_identical_under_fixed_seed(tmp_path):
    env = dict(os.environ, GWA_SEED="42")
    one = subprocess.run(
        [sys.executable, "-m", "qdweight", "suite"], capture_output=True, env=env, check=True
    )
    two = subprocess.run(
        [sys.executable, "-m", "qdweight", "suite"], capture_output=True, env=env, check=True
    )
    assert one.stdout == two.stdout
    report = json.loads(one.stdout)
    assert report["seed"] == 42 and report["passed"] is True


def test_importing_the_cli_leaves_jsonschema_unloaded():
    # only scenario files need the validator, and loading it costs memory
    code = "import sys, qdweight.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_seed_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("GWA_SEED", "11")
    assert run_suite(42)["seed"] == 42
    code, out, _ = run_cli(["suite"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 11


def test_bad_gwa_seed_is_a_usage_error(capsys, monkeypatch, twisted_file):
    monkeypatch.setenv("GWA_SEED", "many")
    code, _, err = run_cli(["analyze", twisted_file, "--checks", "decompose"], capsys)
    assert code == 2 and "GWA_SEED" in err


def test_main_calls_share_no_state(capsys, monkeypatch, twisted_file):
    monkeypatch.setenv("GWA_SEED", "11")
    code, out, _ = run_cli(["--pretty", "analyze", twisted_file, "--checks", "dims", "--seed", "5"], capsys)
    assert code == 0 and "weight line" in out and '"seed": 5' in out
    # neither --seed nor --pretty carries over to the next call
    code, out, _ = run_cli(["analyze", twisted_file, "--checks", "dims"], capsys)
    assert code == 0 and out.count("\n") == 1 and json.loads(out)["seed"] == 11


def test_patched_callees_take_effect_after_the_first_call(capsys, monkeypatch, twisted_file):
    code, out, _ = run_cli(["analyze", twisted_file, "--checks", "end"], capsys)
    assert code == 0 and json.loads(out)["checks"]["end"]["dim"] == 1

    class Fake:
        def to_json(self):
            return {"dim": -1}

    monkeypatch.setattr("qdweight.cli.endomorphisms", lambda V, algebra: Fake())
    code, out, _ = run_cli(["analyze", twisted_file, "--checks", "end"], capsys)
    assert code == 0 and json.loads(out)["checks"]["end"] == {"dim": -1}


# pretty rendering


def test_pretty_verify_renders_weight_line(capsys, remark_file):
    code, out, _ = run_cli(["--pretty", "verify", remark_file], capsys)
    assert code == 1
    assert "circular weight line of length 6" in out
    assert "tau=" in out and "sigma=" in out
    # arrows carry the operator scalars
    assert 'Y1 <- [  1]: [["0"]]' in out


def test_pretty_suite_table(capsys):
    code, out, _ = run_cli(["--pretty", "suite", "--seed", "0"], capsys)
    assert code == 0
    assert "grid/VQ_B_A/RATIONAL(q=2)" in out
    assert "PASS" in out
