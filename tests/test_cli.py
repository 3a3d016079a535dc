"""Tests for the command-line front end: scenario validation, subcommand
behavior, exit codes, and report determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qdweight import analyze
from qdweight.analyze import WINDOWED_REASON
from qdweight.cli import (
    SCENARIO_SCHEMA,
    CliError,
    grid_scenarios,
    load_scenario,
    main,
    run_suite,
)
from qdweight.linalg import Mat

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


BIG_CYCLOTOMIC = {"kind": "CYCLOTOMIC", "n": 20160}
CYCLOTOMIC_CAP_ERROR = "cyclotomic order 20160 is over the limit of 1024"


def test_cyclotomic_order_over_the_cap_exits_2_from_a_scenario(tmp_path, capsys):
    path = write_json(tmp_path / "big.json", scenario(BIG_CYCLOTOMIC, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2)))
    start = time.perf_counter()
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == f"error: bad field spec: {CYCLOTOMIC_CAP_ERROR}"


def test_cyclotomic_order_over_the_cap_exits_2_from_a_module_file(tmp_path, capsys):
    module = {"field": BIG_CYCLOTOMIC, "base": ["1/2", "3"], "kind": "INFINITE", "window": [0, 2]}
    path = write_json(tmp_path / "big_module.json", module)
    start = time.perf_counter()
    code, _, err = run_cli(["verify", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == f"error: module {path} is invalid: {CYCLOTOMIC_CAP_ERROR}"


def test_cyclotomic_order_over_the_cap_exits_2_from_realize(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(["realize", "--field", "CYCLOTOMIC", "--n", "20160", "--N", "2"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == f"error: {CYCLOTOMIC_CAP_ERROR}"


def test_exponent_notation_in_a_module_file_exits_2(tmp_path, capsys):
    # Fraction would build 10^(10^7) before any check could see it
    module = {"field": QQ_FIELD, "base": ["1e10000000", "1"], "kind": "INFINITE", "window": [0, 2]}
    path = write_json(tmp_path / "exp_module.json", module)
    start = time.perf_counter()
    code, _, err = run_cli(["verify", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.strip() == f"error: module {path} is invalid: exponent notation is not accepted: '1e10000000'"


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


# FUNCTION_FIELD and CYCLOTOMIC fix q (t, zeta_n): another q is refused,
# any encoding of the fixed one is read as it

FF_Q_ERROR = "FUNCTION_FIELD has q = [0,1]|[1], not 5"
C5_Q_ERROR = "CYCLOTOMIC has q = [0,1], not 3"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--field", "FUNCTION_FIELD", "--q", "5", "--N", "3"], FF_Q_ERROR),
        (["--field", "CYCLOTOMIC", "--n", "5", "--q", "3", "--N", "2"], C5_Q_ERROR),
    ],
)
def test_realize_refuses_a_q_the_kind_does_not_have(capsys, argv, error):
    code, out, err = run_cli(["realize", *argv], capsys)
    assert code == 2 and not out
    assert err.strip() == f"error: {error}"


@pytest.mark.parametrize(
    "field, q",
    [
        (["--field", "FUNCTION_FIELD"], "[0,2]|[2]"),
        (["--field", "CYCLOTOMIC", "--n", "5"], "[0,1]"),
        (["--field", "CYCLOTOMIC", "--n", "5"], "[0,0,0,0,0,0,1]"),  # zeta^6 = zeta
    ],
)
def test_realize_reads_any_encoding_of_the_fixed_q(capsys, field, q):
    code, out, _ = run_cli(["realize", *field, "--q", q, "--N", "2"], capsys)
    assert code == 0
    assert out == run_cli(["realize", *field, "--N", "2"], capsys)[1]


@pytest.mark.parametrize(
    "field, params, error",
    [
        ({"kind": "FUNCTION_FIELD", "q": "5"}, {"b": "2", "a": "[0,1]"}, FF_Q_ERROR),
        ({"kind": "CYCLOTOMIC", "n": 5, "q": "3"}, {"b": "3", "a": "1/2"}, C5_Q_ERROR),
    ],
)
def test_construct_refuses_a_q_the_kind_does_not_have(tmp_path, capsys, field, params, error):
    path = write_json(tmp_path / "s.json", scenario(field, "VQ_B_A", params, (-2, 2)))
    code, out, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2 and not out
    assert err.strip() == f"error: bad field spec: {error}"
    # a top-level q reaches the field spec the same way
    sc = scenario({k: v for k, v in field.items() if k != "q"}, "VQ_B_A", params, (-2, 2))
    sc["q"] = field["q"]
    path = write_json(tmp_path / "s2.json", sc)
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2 and err.strip() == f"error: bad field spec: {error}"


@pytest.mark.parametrize(
    "field, params, error",
    [
        ({"kind": "FUNCTION_FIELD"}, {"b": "2", "a": "[0,1]"}, FF_Q_ERROR),
        ({"kind": "CYCLOTOMIC", "n": 5}, {"b": "3", "a": "1/2"}, C5_Q_ERROR),
    ],
)
def test_verify_refuses_a_module_field_with_a_q_the_kind_does_not_have(tmp_path, capsys, field, params, error):
    path = build_module_file(tmp_path, "m", scenario(field, "VQ_B_A", params, (-2, 2)), capsys)
    code, _, _ = run_cli(["verify", path], capsys)
    assert code == 0
    module = json.loads(Path(path).read_text())
    module["field"]["q"] = error.rsplit(" ", 1)[1]
    write_json(Path(path), module)
    code, out, err = run_cli(["verify", path], capsys)
    assert code == 2 and not out
    assert err.strip() == f"error: module {path} is invalid: {error}"


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


@pytest.mark.parametrize(
    "field, text",
    [(QQ_FIELD, "1/0"), ({"kind": "CYCLOTOMIC", "n": 4}, "[1/0]"), ({"kind": "FUNCTION_FIELD"}, "[1]|[0]")],
    ids=["RATIONAL", "CYCLOTOMIC", "FUNCTION_FIELD"],
)
def test_zero_denominator_in_a_module_file_exits_2(tmp_path, capsys, field, text):
    path = write_json(tmp_path / "m.json", {"field": field, "base": [text, "3"], "kind": "INFINITE", "window": [0, 2]})
    code, _, err = run_cli(["verify", path], capsys)
    assert code == 2
    assert err == f"error: module {path} is invalid: zero denominator in {text!r}\n"


@pytest.mark.parametrize(
    "field, params, message",
    [
        (QQ_FIELD, {"b": "1/0", "a": "1/2"}, "cannot construct: zero denominator in '1/0'"),
        ({"kind": "RATIONAL", "q": "1/0"}, {"b": "3", "a": "1/2"}, "bad field spec: zero denominator in '1/0'"),
    ],
    ids=["param", "q"],
)
def test_zero_denominator_in_a_scenario_exits_2(tmp_path, capsys, field, params, message):
    path = write_json(tmp_path / "s.json", scenario(field, "VQ_B_A", params, (-2, 2)))
    code, _, err = run_cli(["construct", "--scenario", path], capsys)
    assert code == 2 and err == f"error: {message}\n"


def test_zero_denominator_in_realize_q_exits_2(capsys):
    code, _, err = run_cli(["realize", "--field", "RATIONAL", "--q", "1/0", "--N", "3"], capsys)
    assert code == 2 and err == "error: zero denominator in '1/0'\n"


def test_realize_over_the_entry_cap_exits_2_before_any_matrix(capsys, monkeypatch):
    # (N+1)^2 = 66049 entries per matrix: refused before Mat.zeros builds one
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(Mat, "zeros", no_matrix)
    start = time.perf_counter()
    code, out, err = run_cli(["realize", "--field", "RATIONAL", "--q", "2", "--N", "256"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: the degree bound N = 256 needs 66049 entries per matrix, over the limit of 65536\n"


def test_construct_to_an_unwritable_path_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2)))
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["construct", "--scenario", path, "--out", str(out_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert not out_path.exists()


def test_repeated_operator_offset_exits_2(tmp_path, capsys):
    # the second matrix used to replace the first: X_0 loaded as [5]
    raw = {
        "field": {"kind": "PRIME_FIELD", "p": 7, "q": "2"},
        "base": ["1", "1"],
        "spaces": [{"offset": 0, "dim": 1}, {"offset": 1, "dim": 1}],
        "ops": {"X": [{"offset": 0, "matrix": [["3"]]}, {"offset": 0, "matrix": [["5"]]}]},
    }
    path = write_json(tmp_path / "m.json", raw)
    code, out, err = run_cli(["verify", path], capsys)
    assert code == 2 and out == ""
    assert err == f"error: module {path} is invalid: operator X has two matrices at offset 0\n"


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


@pytest.mark.parametrize("entries", [[], [{"offset": 0, "matrix": [["1"]]}]], ids=["empty", "one-matrix"])
def test_unknown_operator_name_exits_2(tmp_path, capsys, entries):
    # with a matrix, the name was looked up before it was checked: a bare 'Z'
    raw = {
        "field": {"kind": "PRIME_FIELD", "p": 7, "q": "2"},
        "base": ["1", "1"],
        "spaces": [{"offset": 0, "dim": 1}],
        "ops": {"Z": entries},
    }
    path = write_json(tmp_path / "m.json", raw)
    code, out, err = run_cli(["analyze", path, "--checks", "dims"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: module {path} is invalid: unknown operator name 'Z'\n"


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


def test_analyze_windowed_checks_sharing_end_each_report_not_applicable(tmp_path, capsys):
    sc = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
    path = build_module_file(tmp_path, "line", sc, capsys)
    code, out, _ = run_cli(["analyze", path, "--checks", "decompose,indecomposable,end"], capsys)
    assert code == 3
    checks = json.loads(out)["checks"]
    for name in ("end", "decompose", "indecomposable"):
        assert checks[name] == {"verdict": "NOT_APPLICABLE", "reason": WINDOWED_REASON}


SHARED_END_FIXTURES = {
    "twisted": (F9_FIELD, "VQ_F_B_A", {"f": "2", "b": "[0,1]", "a": "[0,1]"}),
    "alt4": (F9_FIELD, "CHAIN_ALT", {"m": 4, "a": ["1", "1", "1", "1"]}),
    "cc2": ({"kind": "EXT_FIELD", "p": 2, "f": [1, 1, 1], "q": "[0,1]"}, "CHAIN_CYCLE",
            {"m": 2, "word": "YY1", "a": ["1", "[0,1]"]}),
}


@pytest.mark.parametrize("algebra", ["D", "AQ", "A1"])
@pytest.mark.parametrize("fixture", sorted(SHARED_END_FIXTURES))
def test_checks_sharing_one_end_match_the_single_check_runs(tmp_path, capsys, fixture, algebra):
    path = build_module_file(tmp_path, fixture, scenario(*SHARED_END_FIXTURES[fixture]), capsys)
    merged, codes = {}, []
    for name in ("end", "decompose", "indecomposable"):
        code, out, _ = run_cli(["analyze", path, "--checks", name, "--algebra", algebra], capsys)
        merged.update(json.loads(out)["checks"])
        codes.append(code)
    expected = json.dumps({"algebra": algebra, "checks": merged, "seed": 0}, sort_keys=True, separators=(",", ":"))
    for order in ("end,decompose,indecomposable", "indecomposable,decompose,end"):
        code, out, _ = run_cli(["analyze", path, "--checks", order, "--algebra", algebra], capsys)
        assert out == expected + "\n"
        assert code == (1 if 1 in codes else 3 if 3 in codes else 0)


def test_analyze_end_and_decompose_solve_end_once(tmp_path, capsys, monkeypatch):
    solve, solves = analyze._graded_hom_basis, []
    monkeypatch.setattr(analyze, "_graded_hom_basis", lambda *args: solves.append(args) or solve(*args))
    counts = {}
    for m in (4, 6):
        path = build_module_file(tmp_path, f"alt{m}", scenario(F9_FIELD, "CHAIN_ALT", {"m": m, "a": ["1"] * m}), capsys)
        solves.clear()
        code, out, _ = run_cli(["analyze", path, "--checks", "end,decompose"], capsys)
        assert code == 0
        counts[m] = (len(solves), json.loads(out)["checks"]["decompose"]["count"])
    # m=6 is indecomposable over D: one End serves both checks (two solves
    # before they shared it); m=4 splits in two, and each summand's End is
    # restricted from the one solved (three solves before)
    assert counts == {4: (1, 2), 6: (1, 1)}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "M", "--checks", "irreducible", "--budget", "-1"], "--budget"),
        (["analyze", "M", "--checks", "indecomposable", "--trials", "-5"], "--trials"),
        (["iso", "M", "M", "--trials", "-5"], "--trials"),
    ],
    ids=["analyze-budget", "analyze-trials", "iso-trials"],
)
def test_negative_trials_and_budget_exit_2(capsys, twisted_file, argv, flag):
    code, out, err = run_cli([twisted_file if a == "M" else a for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err and "nonnegative" in err


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


def test_scenario_schema_is_a_valid_draft7_schema():
    # load_scenario skips this meta-check on every call, so it is made here
    from jsonschema import Draft7Validator

    Draft7Validator.check_schema(SCENARIO_SCHEMA)


def _with(sc, **changes):
    out = dict(sc, **changes)
    return {k: v for k, v in out.items() if v is not None}


_GOOD = scenario(QQ_FIELD, "VQ_B_A", {"b": "3", "a": "1/2"}, (-2, 2))
INVALID_SCENARIOS = {
    "schema": _with(_GOOD, schema="2"),
    "schema+extra+window": _with(_GOOD, schema=2, extra=1, window=[0, "x", 3]),
    "action+field": _with(_GOOD, action="verify", field={"kind": "REAL"}),
    "missing field": _with(_GOOD, field=None),
    "field extra+q": _with(_GOOD, field={"kind": "RATIONAL", "q": 2, "r": 1}),
    "family": _with(_GOOD, family={"params": [], "title": "x"}),
    "window short": _with(_GOOD, window=[1]),
    "not an object": ["schema", "1"],
}


@pytest.mark.parametrize("name", sorted(INVALID_SCENARIOS))
def test_scenario_errors_match_jsonschema_validate(tmp_path, name):
    import jsonschema

    raw = INVALID_SCENARIOS[name]
    path = write_json(tmp_path / "s.json", raw)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(raw, SCENARIO_SCHEMA)
    with pytest.raises(CliError) as got:
        load_scenario(path)
    assert str(got.value) == f"scenario {path} is invalid: {want.value.message}"


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


def test_suite_seed_0_stdout_is_pinned():
    # the digest of the whole report, the same under PYTHONHASHSEED 0, 1 and
    # 12345; a change that moves any byte of it must say why
    out = subprocess.run([sys.executable, "-m", "qdweight", "suite", "--seed", "0"], capture_output=True, check=True)
    assert hashlib.md5(out.stdout).hexdigest() == "1d1e7152dfe2248b2c4a12a48bd2cb73"


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
