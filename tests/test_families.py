"""Family catalog tests: frozen oracle values, side conditions, relations."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdweight.basering import WeightPoint
from qdweight.cli import build_scenario_module, canonical_json, grid_scenarios
from qdweight.families import FAMILY_NAMES, FamilyId, construct_family, list_families
from qdweight.fields import FieldSpec, make_field
from qdweight.verify import check_relations
from qdweight.wmod import construct_gwa, make_module, restrict, simple_no_break

QQ = make_field(FieldSpec(kind="RATIONAL", q="2"))
QH = make_field(FieldSpec(kind="RATIONAL", q="1/2"))
F3 = make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))
F5 = make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="2"))
F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=[1, 0, 1], q="2"))
F4 = make_field(FieldSpec(kind="EXT_FIELD", p=2, f=[1, 1, 1], q="[0,1]"))
C5 = make_field(FieldSpec(kind="CYCLOTOMIC", n=5))
FF = make_field(FieldSpec(kind="FUNCTION_FIELD"))


def entry(V, name, k):
    return V.op(name, k).data[0][0]


# frozen raw modules the constructors must reproduce byte for byte


def chain_cycle_raw():
    # length-6 circular module over F3, one chain component closed through Y
    def mats(coeffs):
        return [{"offset": k, "matrix": [[str(c)]]} for k, c in coeffs.items()]

    return {
        "field": F3.spec.to_json(),
        "base": ["1", "1"],
        "spaces": [{"offset": k, "dim": 1} for k in range(6)],
        "ops": {
            "X": mats({k: 1 for k in range(5)} | {5: 0}),
            "Y": mats({k: k % 3 for k in range(1, 6)} | {0: 1}),
            "Y1": mats({k: (pow(2, k) - 1) % 3 for k in range(1, 6)} | {0: 0}),
        },
    }


def remark_module_raw():
    # three steps up, then a forced stop; violates Y1X = qsigma-1 at the top
    return {
        "field": F3.spec.to_json(),
        "base": ["1", "1"],
        "spaces": [
            {"offset": 0, "dim": 1, "labels": ["v1"]},
            {"offset": 1, "dim": 1, "labels": ["v2"]},
            {"offset": 2, "dim": 1, "labels": ["v3"]},
        ],
        "ops": {
            "X": [
                {"offset": 0, "matrix": [["1"]]},
                {"offset": 1, "matrix": [["1"]]},
            ],
            "Y": [
                {"offset": 1, "matrix": [["1"]]},
                {"offset": 2, "matrix": [["2"]]},
            ],
            "Y1": [
                {"offset": 1, "matrix": [["1"]]},
                {"offset": 2, "matrix": [["0"]]},
            ],
        },
    }


# the two full-orbit one-dimensional families


def test_vq_b_a_oracle_values():
    V = construct_family(FamilyId("VQ_B_A", {"b": 3, "a": 5}), QQ, window=(-1, 1))
    assert entry(V, "X", 0) == QQ.parse("5")
    assert entry(V, "Y", 0) == QQ.parse("2")
    assert entry(V, "Y1", 0) == QQ.one
    assert V.tau_scalar(0) == QQ.parse("5")
    assert V.sigma_scalar(0) == QQ.parse("3")


def test_vq_b_a_passes_relations():
    V = construct_family(FamilyId("VQ_B_A", {"b": 3, "a": 5}), QQ, window=(-3, 3))
    rep = check_relations(V, "D")
    assert rep.passed and rep.checked


@pytest.mark.parametrize("b", ["4", "1", "1/8"])
def test_vq_b_a_rejects_q_powers(b):
    with pytest.raises(ValueError, match="q-power"):
        construct_family(FamilyId("VQ_B_A", {"b": b, "a": 0}), QQ, window=(-1, 1))


def test_vq_b_a_q_power_check_other_fields():
    # q = 1/2: the chain runs downward in magnitude
    with pytest.raises(ValueError, match="q-power"):
        construct_family(FamilyId("VQ_B_A", {"b": "8", "a": 0}), QH, window=(-1, 1))
    # q = t in the function field: monomials are the only powers
    with pytest.raises(ValueError, match="q-power"):
        construct_family(FamilyId("VQ_B_A", {"b": "[0,0,1]", "a": 0}), FF, window=(-1, 1))
    V = construct_family(FamilyId("VQ_B_A", {"b": "[1,1]", "a": "[0,1]"}), FF, window=(-2, 2))
    assert check_relations(V, "D").passed
    # q = zeta_5: the chain is the five roots of unity
    with pytest.raises(ValueError, match="q-power"):
        construct_family(FamilyId("VQ_B_A", {"b": "[0,0,0,1]", "a": 0}), C5, window=(-1, 1))
    V = construct_family(FamilyId("VQ_B_A", {"b": 3, "a": "[0,1]"}), C5, window=(-2, 2))
    assert check_relations(V, "D").passed


def test_vq_b_a_needs_infinite_orbit():
    with pytest.raises(ValueError, match="circular"):
        construct_family(
            FamilyId("VQ_B_A", {"b": "[0,1]", "a": "[0,1]"}), F9, window=(-1, 1)
        )
    with pytest.raises(ValueError, match="window"):
        construct_family(FamilyId("VQ_B_A", {"b": 3, "a": 5}), QQ)


def test_v1_a_b_oracle_values():
    V = construct_family(FamilyId("V1_A_B", {"a": "1/2", "b": 3}), QQ, window=(-3, 3))
    assert entry(V, "X", 0) == QQ.parse("1/2")
    assert entry(V, "Y", 0) == QQ.one
    assert entry(V, "Y1", 0) == QQ.parse("-4")
    assert check_relations(V, "D").passed


@pytest.mark.parametrize("a", ["2", "0", "-7"])
def test_v1_a_b_rejects_integer_a(a):
    with pytest.raises(ValueError, match="integer"):
        construct_family(FamilyId("V1_A_B", {"a": a, "b": 3}), QQ, window=(-1, 1))


def test_v1_a_b_integer_check_other_fields():
    with pytest.raises(ValueError, match="integer"):
        construct_family(FamilyId("V1_A_B", {"a": "[3]", "b": 2}), C5, window=(-1, 1))
    V = construct_family(FamilyId("V1_A_B", {"a": "[0,1]", "b": 2}), C5, window=(-2, 2))
    assert check_relations(V, "D").passed
    with pytest.raises(ValueError, match="circular"):
        construct_family(FamilyId("V1_A_B", {"a": "[0,1]", "b": "[0,1]"}), F9, window=(-1, 1))


def test_restriction_matches_gwa_catalog():
    V = construct_family(FamilyId("VQ_B_A", {"b": 3, "a": 5}), QQ, window=(-3, 3))
    G = construct_gwa(
        "AQ", simple_no_break(), WeightPoint(QQ.parse("5"), QQ.parse("3")), (-3, 3), QQ
    )
    assert restrict(V, "AQ") == G
    W = construct_family(FamilyId("V1_A_B", {"a": "1/2", "b": 3}), QQ, window=(-3, 3))
    H = construct_gwa(
        "A1", simple_no_break(), WeightPoint(QQ.parse("1/2"), QQ.parse("3")), (-3, 3), QQ
    )
    assert restrict(W, "A1") == H


# junction families across a break


@pytest.mark.parametrize(
    "name,params",
    [
        ("VQ_JJ_1", {"a": 7}),
        ("VQ_JJ_1", {"a": 0}),
        ("VQ_JJ_CD", {"c": 5, "d": "2/3"}),
        ("VQ_JJ_CD", {"c": 0, "d": 0}),
        ("V1_JJ_1", {"b": 7}),
        ("V1_JJ_CD", {"c": 5, "d": "2/3"}),
        ("V1_JJ_CD", {"c": 0, "d": 0}),
    ],
)
def test_junction_families_pass_for_any_parameter(name, params):
    V = construct_family(FamilyId(name, params), QQ, window=(-3, 3))
    assert check_relations(V, "D").passed


def test_vq_jj_1_junction_values():
    V = construct_family(FamilyId("VQ_JJ_1", {"a": 7}), QQ, window=(-2, 2))
    assert entry(V, "X", 0) == QQ.one
    assert entry(V, "Y", 1) == QQ.parse("7")
    assert entry(V, "Y1", 1) == QQ.zero
    assert V.sigma_scalar(0) == QQ.parse("1/2")


def test_v1_jj_1_junction_values():
    V = construct_family(FamilyId("V1_JJ_1", {"b": 7}), QQ, window=(-2, 2))
    assert entry(V, "X", 0) == QQ.one
    assert entry(V, "Y1", 1) == QQ.parse("13")  # qb - 1
    assert entry(V, "Y", 1) == QQ.zero
    assert V.tau_scalar(0) == QQ.zero


def test_jj_cd_junction_values():
    V = construct_family(FamilyId("VQ_JJ_CD", {"c": 5, "d": 7}), QQ, window=(-2, 2))
    assert entry(V, "X", 0) == QQ.zero
    assert entry(V, "Y1", 1) == QQ.parse("5")
    assert entry(V, "Y", 1) == QQ.parse("7")
    W = construct_family(FamilyId("V1_JJ_CD", {"c": 5, "d": 7}), QQ, window=(-2, 2))
    assert entry(W, "X", 0) == QQ.zero
    assert entry(W, "Y", 1) == QQ.parse("5")
    assert entry(W, "Y1", 1) == QQ.parse("7")


# ray families: the junction instance is honest only on the safe locus


@pytest.mark.parametrize(
    "name,params,window",
    [
        ("VQ_JJ_3", {"a": 0}, (-4, 1)),
        ("VQ_JJ_4", {"a": 0}, (0, 5)),
        ("V1_JJ_3", {"b": "1/2"}, (-4, 1)),
        ("V1_JJ_4", {"b": 1}, (0, 5)),
    ],
)
def test_ray_families_pass_on_safe_locus(name, params, window):
    V = construct_family(FamilyId(name, params), QQ, window=window)
    assert check_relations(V, "D").passed


@pytest.mark.parametrize(
    "name,params,window",
    [
        ("VQ_JJ_3", {"a": 5}, (-3, 0)),
        ("VQ_JJ_4", {"a": 5}, (1, 4)),
        ("V1_JJ_3", {"b": 3}, (-3, 0)),
        ("V1_JJ_4", {"b": 3}, (1, 4)),
    ],
)
def test_ray_families_pass_on_edge_stopping_windows(name, params, window):
    # generic parameters are fine when the window stops at the ray end
    V = construct_family(FamilyId(name, params), QQ, window=window)
    assert check_relations(V, "D").passed


@pytest.mark.parametrize(
    "name,params,window,relation,offset",
    [
        ("VQ_JJ_3", {"a": 5}, (-3, 1), "YX=tau", 0),
        ("VQ_JJ_4", {"a": 5}, (0, 4), "XY=alpha(tau)", 1),
        ("V1_JJ_3", {"b": 3}, (-3, 1), "Y1X=qsigma-1", 0),
        ("V1_JJ_4", {"b": 3}, (0, 4), "XY1=alpha(qsigma-1)", 1),
    ],
)
def test_ray_families_fail_off_safe_locus(name, params, window, relation, offset):
    V = construct_family(FamilyId(name, params), QQ, window=window)
    rep = check_relations(V, "D")
    assert [(v["relation"], v["offset"]) for v in rep.violations] == [(relation, offset)]


def test_ray_family_support():
    V = construct_family(FamilyId("VQ_JJ_3", {"a": 0}), QQ, window=(-3, 2))
    assert [V.dim(k) for k in V.offsets()] == [1, 1, 1, 1, 0, 0]
    W = construct_family(FamilyId("V1_JJ_4", {"b": 1}), QQ, window=(-2, 3))
    assert [W.dim(k) for k in W.offsets()] == [0, 0, 0, 1, 1, 1]
    assert W.sigma_scalar(1) == QQ.one  # parameter b is sigma at the first offset
    empty = construct_family(FamilyId("VQ_JJ_3", {"a": 0}), QQ, window=(1, 3))
    assert empty.total_dim() == 0


@pytest.mark.parametrize("name", ["VQ_JJ_1", "VQ_JJ_CD", "VQ_JJ_3", "VQ_JJ_4"])
def test_vq_jj_need_infinite_q_order(name):
    params = {"c": 1, "d": 1} if name == "VQ_JJ_CD" else {"a": 1}
    for ctx in (C5, F3):
        with pytest.raises(ValueError, match="infinite multiplicative order"):
            construct_family(FamilyId(name, params), ctx, window=(-1, 1))


@pytest.mark.parametrize("name", ["V1_JJ_1", "V1_JJ_CD", "V1_JJ_3", "V1_JJ_4"])
def test_v1_jj_need_characteristic_zero(name):
    params = {"c": 1, "d": 1} if name == "V1_JJ_CD" else {"b": 1}
    with pytest.raises(ValueError, match="characteristic 0"):
        construct_family(FamilyId(name, params), F3, window=(-1, 1))


# the twisted circular families


def test_twisted_circular_oracle_values():
    t = "[0,1]"
    V = construct_family(FamilyId("VQ_F_B_A", {"f": 2, "b": t, "a": t}), F9)
    assert check_relations(V, "D").passed
    assert V.orbit.length == 6
    # wrap step carries the twist: X_5 = f*(q*sigma(5) - 1) = f*(b - 1)
    assert entry(V, "X", 5) == F9.parse("2") * (F9.parse(t) - 1)
    assert entry(V, "Y1", 0) == F9.parse("2")  # 1/f with f = 2 in F9
    W = construct_family(FamilyId("V1_F_A_B", {"f": 2, "a": t, "b": t}), F9)
    assert check_relations(W, "D").passed
    assert entry(W, "X", 5) == F9.parse("2") * (F9.parse(t) - 1)
    assert entry(W, "Y", 0) == F9.parse("2")


def test_twisted_circular_side_conditions():
    t = "[0,1]"
    with pytest.raises(ValueError, match="f nonzero"):
        construct_family(FamilyId("VQ_F_B_A", {"f": 0, "b": t, "a": t}), F9)
    with pytest.raises(ValueError, match="f nonzero"):
        construct_family(FamilyId("V1_F_A_B", {"f": 0, "a": t, "b": t}), F9)
    # the orbit of (1, 1) has breaks on both sides
    with pytest.raises(ValueError, match="sigma-side breaks"):
        construct_family(FamilyId("VQ_F_B_A", {"f": 1, "b": 1, "a": 1}), F3)
    with pytest.raises(ValueError, match="tau-side breaks"):
        construct_family(FamilyId("V1_F_A_B", {"f": 1, "a": 1, "b": 1}), F3)
    with pytest.raises(ValueError, match="circular"):
        construct_family(FamilyId("VQ_F_B_A", {"f": 1, "b": 3, "a": 5}), QQ)
    with pytest.raises(ValueError, match="takes no window"):
        construct_family(FamilyId("VQ_F_B_A", {"f": 2, "b": t, "a": t}), F9, window=(0, 5))


# chain families on the orbit of (1, 1)


def test_chain_cycle_matches_frozen_fixture():
    V = construct_family(FamilyId("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": [1]}), F3)
    assert V == make_module(chain_cycle_raw())
    assert check_relations(V, "D").passed


def test_chain_cycle_oracle_over_degree_two_field():
    fid = FamilyId("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": [1]})
    V = construct_family(fid, F4)
    assert V.orbit.length == 6 and V.total_dim() == 6
    assert V.op_target("Y", 0) == 5
    assert entry(V, "Y", 0) == F4.one  # Y v0 = v5
    assert entry(V, "Y1", 0) == F4.zero  # Y1 v0 = 0
    assert entry(V, "Y1", 3) == F4.zero  # Y1 v3 = (q^3 - 1) v2 = 0
    assert check_relations(V, "D").passed


def test_chain_alt_is_the_alternating_word():
    a = ["1", "2", "1", "2"]
    V = construct_family(FamilyId("CHAIN_ALT", {"m": 4, "a": a}), F3)
    W = construct_family(
        FamilyId("CHAIN_CYCLE", {"m": 4, "word": ["Y", "Y1", "Y", "Y1"], "a": a}), F3
    )
    assert V == W
    assert check_relations(V, "D").passed


def test_chain_junction_matrices_frozen():
    a = ["1", "2", "1", "2"]
    V = construct_family(FamilyId("CHAIN_ALT", {"m": 4, "a": a}), F3)
    assert V.op("Y", 0).to_json() == [
        ["1", "0", "0", "1"],
        ["0", "0", "0", "0"],
        ["0", "1", "1", "0"],
        ["0", "0", "0", "0"],
    ]
    assert V.op("Y1", 0).to_json() == [
        ["0", "0", "0", "0"],
        ["1", "2", "0", "0"],
        ["0", "0", "0", "0"],
        ["0", "0", "1", "2"],
    ]
    assert V.op("X", 5).is_zero()
    assert V.op("X", 2) == V.op("X", 0)


def test_chain_word_forms():
    a = ["1", "2"]
    compact = construct_family(FamilyId("CHAIN_CYCLE", {"m": 2, "word": "YY1", "a": a}), F3)
    spaced = construct_family(FamilyId("CHAIN_CYCLE", {"m": 2, "word": "Y Y1", "a": a}), F3)
    listed = construct_family(
        FamilyId("CHAIN_CYCLE", {"m": 2, "word": ["y", "y1"], "a": a}), F3
    )
    assert compact == spaced == listed


def test_chain_rejections():
    with pytest.raises(ValueError, match="circular"):
        construct_family(FamilyId("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": [1]}), QQ)
    with pytest.raises(ValueError, match="word length"):
        construct_family(FamilyId("CHAIN_CYCLE", {"m": 2, "word": "Y", "a": [1, 1]}), F3)
    with pytest.raises(ValueError, match="nonzero"):
        construct_family(FamilyId("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": [0]}), F3)
    with pytest.raises(ValueError, match="m >= 1"):
        construct_family(FamilyId("CHAIN_CYCLE", {"m": 0, "word": "", "a": []}), F3)
    with pytest.raises(ValueError, match="letters"):
        construct_family(FamilyId("CHAIN_CYCLE", {"m": 1, "word": "Z", "a": [1]}), F3)
    with pytest.raises(ValueError, match="even"):
        construct_family(FamilyId("CHAIN_ALT", {"m": 3, "a": [1, 1, 1]}), F3)
    with pytest.raises(ValueError, match="junction parameters"):
        construct_family(FamilyId("CHAIN_CYCLE", {"m": 2, "word": "YY", "a": [1]}), F3)


def test_chain_cycle_size_cap_refuses_before_building(monkeypatch):
    # F9's orbit of (1, 1) has r = 6, so m = 60 stores 64800 entries and
    # m = 62 stores 69192, over the cap of 65536
    import qdweight.families as families

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(families, "Mat", refuse)
    monkeypatch.setattr(families, "junction_module", refuse)
    with pytest.raises(ValueError, match="CHAIN_CYCLE would store 69192 matrix entries, over the limit of 65536"):
        construct_family(FamilyId("CHAIN_ALT", {"m": 62, "a": ["1"] * 62}), F9)
    with pytest.raises(AssertionError, match="a matrix was built"):
        construct_family(FamilyId("CHAIN_ALT", {"m": 60, "a": ["1"] * 60}), F9)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_chain_cycle_property(data):
    ctx = data.draw(st.sampled_from([F3, F9, F4]))
    m = data.draw(st.integers(min_value=1, max_value=3))
    word = [data.draw(st.sampled_from(["Y", "Y1"])) for _ in range(m)]
    units = [x for x in ctx.all_elements() if x]
    a = [str(data.draw(st.sampled_from(units))) for _ in range(m)]
    V = construct_family(FamilyId("CHAIN_CYCLE", {"m": m, "word": word, "a": a}), ctx)
    r = V.orbit.length
    assert V.total_dim() == r * m
    assert all(V.dim(k) == m for k in V.offsets())
    assert check_relations(V, "D").passed


# the two-row module at a double break


def test_vcd_tworow_oracle():
    V = construct_family(FamilyId("VCD_TWOROW", {"c": 1, "d": 1}), QQ, window=(-3, 3))
    assert [V.dim(k) for k in V.offsets()] == [2, 2, 2, 2, 1, 1, 1]
    assert V.label_list(0) == ("u0", "w0") and V.label_list(1) == ("v1",)
    assert V.op("X", 0).to_json() == [["0", "0"]]
    assert V.op("Y", 1).to_json() == [["1"], ["0"]]
    assert V.op("Y1", 1).to_json() == [["0"], ["1"]]
    assert V.op("X", -1).to_json() == [["1", "0"], ["0", "1"]]
    assert check_relations(V, "D").passed


@pytest.mark.parametrize("c,d", [("5", "7/3"), ("0", "0"), ("-1", "4")])
def test_vcd_tworow_passes_for_any_parameters(c, d):
    V = construct_family(FamilyId("VCD_TWOROW", {"c": c, "d": d}), QQ, window=(-2, 2))
    assert check_relations(V, "D").passed


def test_vcd_tworow_needs_characteristic_zero():
    with pytest.raises(ValueError, match="characteristic 0"):
        construct_family(FamilyId("VCD_TWOROW", {"c": 1, "d": 1}), F3, window=(-1, 1))


# the frozen checker fixture


def test_remark_matches_frozen_fixture():
    V = construct_family("REMARK_136", F3)
    assert V == make_module(remark_module_raw())


def test_remark_single_violation():
    for ctx in (F3, F9):
        V = construct_family("REMARK_136", ctx)
        rep = check_relations(V, "D")
        assert [(v["relation"], v["offset"], v["label"]) for v in rep.violations] == [
            ("Y1X=qsigma-1", 2, "v3")
        ]
        assert rep.violations[0]["computed"] == [ctx.show(ctx.zero)]


def test_remark_field_requirements():
    for ctx in (QQ, F5, C5, F4, make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="1"))):
        with pytest.raises(ValueError, match="characteristic 3"):
            construct_family("REMARK_136", ctx)
    with pytest.raises(ValueError, match="takes no window"):
        construct_family("REMARK_136", F3, window=(0, 2))


# every family with honest parameters passes the full relation check


GRID = [
    ("VQ_B_A", {"b": 3, "a": 5}, QQ, (-3, 3)),
    ("VQ_B_A", {"b": "[1,1]", "a": "[0,1]"}, FF, (-2, 2)),
    ("VQ_B_A", {"b": 3, "a": "[0,1]"}, C5, (-2, 2)),
    ("VQ_JJ_1", {"a": 7}, QQ, (-3, 3)),
    ("VQ_JJ_1", {"a": "[0,1]"}, FF, (-2, 2)),
    ("VQ_JJ_CD", {"c": 5, "d": "2/3"}, QQ, (-3, 3)),
    ("VQ_JJ_3", {"a": 0}, QQ, (-4, 1)),
    ("VQ_JJ_4", {"a": 0}, QQ, (0, 5)),
    ("VQ_F_B_A", {"f": 2, "b": "[0,1]", "a": "[0,1]"}, F9, None),
    ("V1_A_B", {"a": "1/2", "b": 3}, QQ, (-3, 3)),
    ("V1_A_B", {"a": "[0,1]", "b": 2}, C5, (-2, 2)),
    ("V1_JJ_1", {"b": 7}, QQ, (-3, 3)),
    ("V1_JJ_CD", {"c": 5, "d": "2/3"}, QQ, (-3, 3)),
    ("V1_JJ_3", {"b": "1/2"}, QQ, (-4, 1)),
    ("V1_JJ_4", {"b": 1}, QQ, (0, 5)),
    ("V1_F_A_B", {"f": 2, "a": "[0,1]", "b": "[0,1]"}, F9, None),
    ("CHAIN_CYCLE", {"m": 2, "word": "YY1", "a": [1, 2]}, F3, None),
    ("CHAIN_CYCLE", {"m": 1, "word": "Y1", "a": [1]}, F4, None),
    ("CHAIN_CYCLE", {"m": 3, "word": "YYY1", "a": ["2", "[0,1]", "1"]}, F9, None),
    ("CHAIN_ALT", {"m": 2, "a": [1, 2]}, F3, None),
    ("CHAIN_ALT", {"m": 4, "a": [1, 2, 1, 2]}, F3, None),
    ("VCD_TWOROW", {"c": 1, "d": 1}, QQ, (-3, 3)),
    ("VCD_TWOROW", {"c": "5", "d": "7/3"}, QQ, (-2, 2)),
]


@pytest.mark.parametrize("name,params,ctx,window", GRID)
def test_family_grid_passes_relations(name, params, ctx, window):
    V = construct_family(FamilyId(name, params), ctx, window=window)
    rep = check_relations(V, "D")
    assert rep.passed, rep.violations


@settings(max_examples=25, deadline=None)
@given(
    bn=st.integers(min_value=-9, max_value=9).filter(bool),
    bd=st.integers(min_value=1, max_value=9),
    an=st.integers(min_value=-9, max_value=9),
    lo=st.integers(min_value=-3, max_value=0),
    hi=st.integers(min_value=1, max_value=3),
)
def test_vq_b_a_property(bn, bd, an, lo, hi):
    fid = FamilyId("VQ_B_A", {"b": f"{bn}/{bd}", "a": str(an)})
    try:
        V = construct_family(fid, QQ, window=(lo, hi))
    except ValueError:
        return  # b on the q-power chain
    assert check_relations(V, "D").passed


# ids and the catalog


def test_family_id_round_trip():
    fid = FamilyId("chain_cycle", {"m": 2, "word": ("Y", "Y1"), "a": ["1", "2"]})
    assert fid.name == "CHAIN_CYCLE"
    assert fid.params["word"] == ("Y", "Y1") and fid.params["a"] == ("1", "2")
    assert FamilyId.from_json(fid.to_json()) == fid
    assert fid.to_json()["params"]["a"] == ["1", "2"]


def test_family_id_normalizes_elements():
    fid = FamilyId("VQ_B_A", {"b": Fraction(2, 3), "a": QQ.parse("5")})
    assert fid.params == {"b": "2/3", "a": "5"}


def test_family_id_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown family"):
        FamilyId("NO_SUCH_FAMILY")
    with pytest.raises(ValueError, match="not a family id"):
        construct_family(42, QQ)


def test_construct_family_accepts_plain_forms():
    V = construct_family("REMARK_136", F3)
    W = construct_family({"name": "REMARK_136", "params": {}}, F3)
    assert V == W


def test_parameter_schema_enforced():
    with pytest.raises(ValueError, match="missing family parameter"):
        construct_family(FamilyId("VQ_B_A", {"b": 3}), QQ, window=(-1, 1))
    with pytest.raises(ValueError, match="unexpected family parameter"):
        construct_family(FamilyId("VQ_B_A", {"b": 3, "a": 5, "x": 1}), QQ, window=(-1, 1))
    with pytest.raises(ValueError, match="unexpected family parameter"):
        construct_family(FamilyId("REMARK_136", {"a": 1}), F3)


def test_catalog_shape():
    cat = list_families()
    assert len(cat) >= 16
    assert [e["name"] for e in cat] == list(FAMILY_NAMES)
    for e in cat:
        assert e["summary"]
        assert e["side_conditions"]
        assert isinstance(e["params"], list)
    by_name = {e["name"]: e for e in cat}
    assert by_name["VQ_B_A"]["params"] == ["b", "a"]
    assert "q-power" in by_name["VQ_B_A"]["side_conditions"][0]


# pinned output: module JSON of every grid scenario and of off-grid inputs,
# the catalog, and the exact error text of one failing input per guard
# (inputs tripping two guards pin the order of the checks); recorded from
# the one-builder-per-family implementation the family table replaced

PINNED = json.loads((Path(__file__).parent / "families_pinned.json").read_text())


def test_catalog_is_pinned():
    assert list_families() == PINNED["list_families"]


def test_grid_modules_are_pinned():
    rows = grid_scenarios()
    assert len(rows) == len(PINNED["grid"])
    for sc, raw in zip(rows, PINNED["grid"]):
        assert canonical_json(build_scenario_module(sc).to_json()) == canonical_json(raw)


@pytest.mark.parametrize("name", sorted(PINNED["cases"]))
def test_family_case_is_pinned(name):
    case = PINNED["cases"][name]
    ctx = make_field(FieldSpec.from_json(case["field"]))
    window = tuple(case["window"]) if case["window"] is not None else None
    if "error" in case:
        with pytest.raises(ValueError) as exc:
            construct_family(case["family"], ctx, window=window)
        assert str(exc.value) == case["error"]
    else:
        V = construct_family(case["family"], ctx, window=window)
        assert canonical_json(V.to_json()) == canonical_json(case["module"])


C4 = make_field(FieldSpec(kind="CYCLOTOMIC", n=4))

# (field, text, is an integer, is a power of q), as answered when every
# CYCLOTOMIC and FUNCTION_FIELD coefficient was still a Fraction
SCALAR_TABLE = [
    (FF, "0", True, False),
    (FF, "1", True, True),
    (FF, "-3", True, False),
    (FF, "3/2", False, False),
    (FF, "[4]|[2]", True, False),
    (FF, "[0,1]", False, True),
    (FF, "[1]|[0,0,1]", False, True),
    (C5, "0", True, False),
    (C5, "1", True, True),
    (C5, "-3", True, False),
    (C5, "3/2", False, False),
    (C5, "[1/2]", False, False),
    (C5, "[2]", True, False),
    (C5, "[0,1]", False, True),
    (C4, "[0,1]", False, True),
    (C4, "[-1]", True, True),
    (C4, "[0,0,1]", True, True),
    (C4, "[1/2]", False, False),
]


@pytest.mark.parametrize(
    "ctx,text,is_int,is_power", SCALAR_TABLE, ids=[f"{c.spec.kind}{c.spec.n or ''}:{t}" for c, t, _, _ in SCALAR_TABLE]
)
def test_int_scalar_and_q_power_read_the_int_values(ctx, text, is_int, is_power):
    from qdweight.families import _is_int_scalar, _is_q_power

    a = ctx.parse(text)
    assert _is_int_scalar(ctx, a) is is_int
    assert _is_q_power(ctx, a) is is_power


QM3 = make_field(FieldSpec(kind="RATIONAL", q="-3"))

# (field, text, is an integer, is a power of q), as answered when a RATIONAL
# value was still a Fraction; the parameter form of each is its text
RATIONAL_SCALARS = [
    (QQ, "0", True, False),
    (QQ, "1", True, True),
    (QQ, "-3", True, False),
    (QQ, "3/2", False, False),
    (QQ, "1/2", False, True),
    (QQ, "4", True, True),
    (QQ, "-1/8", False, False),
    (QQ, "2", True, True),
    (QQ, "1/1024", False, True),
    (QM3, "3", True, False),
    (QM3, "-3", True, True),
    (QM3, "9", True, True),
    (QM3, "-1/27", False, True),
]


@pytest.mark.parametrize(
    "ctx,text,is_int,is_power", RATIONAL_SCALARS, ids=[f"q={c.spec.q}:{t}" for c, t, _, _ in RATIONAL_SCALARS]
)
def test_rational_scalar_answers_are_pinned(ctx, text, is_int, is_power):
    from qdweight.families import _is_int_scalar, _is_q_power, _norm_param

    a = ctx.parse(text)
    assert _is_int_scalar(ctx, a) is is_int
    assert _is_q_power(ctx, a) is is_power
    assert _norm_param(a) == text
    assert _norm_param(Fraction(text)) == text
