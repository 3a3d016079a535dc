"""Weight-module structure and GWA catalog tests."""

import pytest

from qdweight.basering import WeightPoint
from qdweight.families import construct_family
from qdweight.fields import FieldCtx, FieldSpec, make_field
from qdweight.linalg import Mat
from qdweight.orbits import Subalgebra, compute_orbit
from qdweight.wmod import (
    WeightModule,
    circ_no_break,
    construct_gwa,
    family1,
    family2,
    junction_module,
    make_module,
    restrict,
    simple_no_break,
    with_breaks,
)

QQ = make_field(FieldSpec(kind="RATIONAL", q="2"))
F3 = make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))
F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=[1, 0, 1], q="2"))


def wp(ctx, a, b):
    return WeightPoint(ctx.parse(str(a)), ctx.parse(str(b)))


# simple no-break chain


def test_simple_no_break_oracle():
    # base (5,3), q=2: X v0 = (2*3-1) v1 = 5 v1, Y1 v0 = v-1
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, 5, 3), (-1, 1), QQ)
    assert V.dim(-1) == V.dim(0) == V.dim(1) == 1
    assert V.op("X", 0).data[0][0] == QQ.from_int(5)
    assert V.op("Y1", 0).data[0][0] == QQ.one
    assert not V.has_op("Y")
    assert V.edge_flags == {"low": True, "high": True}


def test_simple_rejects_break_in_window():
    # sigma-coordinate hits 1/2 = q^{-1} at offset 0
    with pytest.raises(ValueError):
        construct_gwa("AQ", simple_no_break(), wp(QQ, 5, "1/2"), (-1, 1), QQ)


def test_simple_rejects_circular_orbit():
    with pytest.raises(ValueError):
        construct_gwa("AQ", simple_no_break(), wp(F3, 1, 1), (0, 2), F3)


def test_a1_flavor_uses_y():
    V = construct_gwa("A1", simple_no_break(), wp(QQ, "1/2", 3), (-1, 1), QQ)
    assert V.has_op("Y") and not V.has_op("Y1")
    # t = tau: X v0 = (1/2) v1
    assert V.op("X", 0).data[0][0] == QQ.parse("1/2")


# window width cap


def test_window_width_cap():
    orbit = compute_orbit(wp(QQ, "1/2", 3), QQ)
    assert WeightModule(QQ, orbit, (0, 65535), {}, {}).window == (0, 65535)
    with pytest.raises(ValueError, match="^window width 65537 is over the limit of 65536$"):
        WeightModule(QQ, orbit, (-1, 65535), {}, {})
    with pytest.raises(ValueError, match="^empty window$"):
        WeightModule(QQ, orbit, (1, 0), {}, {})


@pytest.mark.parametrize("kind", [simple_no_break(), with_breaks((0,))], ids=["simple", "breaks"])
def test_construct_gwa_caps_window_width(kind):
    with pytest.raises(ValueError, match="^window width 70001 is over the limit of 65536$"):
        construct_gwa("AQ", kind, wp(QQ, 0, "1/2"), (-70000, 0), QQ)


@pytest.mark.parametrize(
    "fid",
    [
        {"name": "VCD_TWOROW", "params": {"c": "1", "d": "3"}},
        {"name": "VQ_B_A", "params": {"b": "3", "a": "1/2"}},
    ],
    ids=["builder", "line"],
)
def test_family_windows_are_capped(fid):
    with pytest.raises(ValueError, match="^window width 70001 is over the limit of 65536$"):
        construct_family(fid, QQ, window=(-70000, 0))
    with pytest.raises(ValueError, match="^empty window$"):
        construct_family(fid, QQ, window=(1, 0))


# with breaks


def breaky(J, Jp=(), window=(-3, 3)):
    # base (0, 1/2): single AQ break at offset 0 with tau-value 0
    return construct_gwa("AQ", with_breaks(J, Jp), wp(QQ, 0, "1/2"), window, QQ)


def test_with_breaks_full_line():
    V = breaky(J=(0, 1))
    assert [V.dim(k) for k in V.offsets()] == [1] * 7
    assert V.op("X", 0).data[0][0] == QQ.zero  # break not glued
    assert V.op("X", 1).data[0][0] == QQ.from_int(1)  # 2^1 - 1
    assert V.op("X", 2).data[0][0] == QQ.from_int(3)  # 2^2 - 1
    assert all(V.op("Y1", k).data[0][0] == QQ.one for k in range(-2, 4))


def test_with_breaks_glued():
    V = breaky(J=(0, 1), Jp=(0,))
    assert V.op("X", 0).data[0][0] == QQ.one  # glued break
    assert V.op("Y1", 1).data[0][0] == QQ.zero  # T vanishes onto the glued break


def test_with_breaks_lower_ray():
    V = breaky(J=(0,))
    assert [V.dim(k) for k in V.offsets()] == [1, 1, 1, 1, 0, 0, 0]


def test_with_breaks_upper_ray():
    V = breaky(J=())
    assert [V.dim(k) for k in V.offsets()] == [0, 0, 0, 0, 1, 1, 1]


def test_with_breaks_validation():
    with pytest.raises(ValueError):
        breaky(J=(2,))  # not in the augmented break set {0, 1}
    with pytest.raises(ValueError):
        breaky(J=(0, 1), Jp=(1,))  # Jp may not contain max J
    with pytest.raises(ValueError):
        construct_gwa("AQ", with_breaks((0,)), wp(QQ, 0, 3), (-3, 3), QQ)  # no breaks


# circular without breaks


def test_circ_no_break_wrap():
    V = construct_gwa("AQ", circ_no_break("[0,1]"), wp(F9, "[0,1]", "[0,1]"), None, F9)
    t = F9.parse("[0,1]")  # the field generator, also the wrap factor here
    r = V.orbit.length
    assert r == 6
    assert V.circular and V.window is None
    # interior X carries q*sigma_k - 1; wrap carries f times that
    for k in range(r - 1):
        sigma = V.sigma_scalar(k)
        assert V.op("X", k).data[0][0] == F9.q * sigma - F9.one
    sigma_top = V.sigma_scalar(r - 1)
    assert V.op("X", r - 1).data[0][0] == t * (F9.q * sigma_top - F9.one)
    assert V.op("Y1", 0).data[0][0] == t.inverse()
    assert all(V.op("Y1", k).data[0][0] == F9.one for k in range(1, r))


def test_circ_no_break_rejects_breaks():
    # base (1,1) over F3 has A1 breaks (tau hits 0)
    with pytest.raises(ValueError):
        construct_gwa("A1", circ_no_break("1"), wp(F3, 1, 1), None, F3)


def test_circ_no_break_rejects_zero_f():
    with pytest.raises(ValueError):
        construct_gwa("AQ", circ_no_break("0"), wp(F9, "[0,1]", "[0,1]"), None, F9)


# family 1


def test_family1_empty_word_support():
    # A1 over F3, base (1,1): breaks at offsets 2 and 5, m = 2
    V = construct_gwa("A1", family1(0, ""), wp(F3, 1, 1), None, F3)
    assert [V.dim(k) for k in V.offsets()] == [1, 1, 1, 0, 0, 0]
    # X vanishes at the break bounding the e0 interval above
    assert V.op("X", 2).rows == 0  # target dim 0
    # T vanishes crossing the lower break: Y at offset 0 maps into dim 0
    assert V.op("Y", 0).rows == 0


def test_family1_word_x():
    # AQ over F3, base (1,1): breaks at offsets 1, 3, 5, m = 3
    V = construct_gwa("AQ", family1(0, "x"), wp(F3, 1, 1), None, F3)
    assert [V.dim(k) for k in V.offsets()] == [1, 1, 1, 1, 0, 0]
    # e0 jumps to e1 across the glued break at offset 1
    assert V.op("X", 1).data[0][0] == F3.one
    # X at the e1 top break (offset 3) is zero into dim 0
    assert V.op("X", 3).rows == 0
    # T at offset 2 crosses the break with z_1 = x, so it vanishes
    assert V.op("Y1", 2).data[0][0] == F3.zero
    # interior X carries t
    assert V.op("X", 0).data[0][0] == F3.q * V.sigma_scalar(0) - F3.one


def test_family1_dims_spread():
    # m=3 breaks, word length 4: symbols e0..e4 spread with wraparound overlap
    V = construct_gwa("AQ", family1(1, "xyxy"), wp(F3, 1, 1), None, F3)
    total = V.total_dim()
    assert total == 2 * 6 - 2  # 5 symbols, each on a 2-offset interval


def test_family1_rejects_no_breaks():
    with pytest.raises(ValueError):
        construct_gwa("AQ", family1(0, "x"), wp(F9, "[0,1]", "[0,1]"), None, F9)


def test_family1_rejects_bad_word():
    with pytest.raises(ValueError):
        construct_gwa("AQ", family1(0, "xz"), wp(F3, 1, 1), None, F3)


# family 2


def test_family2_wrap():
    # AQ over F3: m = 3 breaks; word xxx wraps e3 -> f e1
    V = construct_gwa("AQ", family2("xxx", "2"), wp(F3, 1, 1), None, F3)
    assert V.total_dim() == 6  # e1, e2, e3 each on a 2-offset interval
    # at each break the X arrow glues with coefficient 1, except the wrap with f
    brk_offsets = [1, 3, 5]
    seen_f = 0
    for o in brk_offsets:
        m = V.op("X", o)
        assert m.rows == m.cols == 1
        if m.data[0][0] == F3.from_int(2):
            seen_f += 1
        else:
            assert m.data[0][0] == F3.one
    assert seen_f == 1


def test_family2_y_word_wrap():
    V = construct_gwa("AQ", family2("yyy", "2"), wp(F3, 1, 1), None, F3)
    # all X arrows at breaks vanish; T arrows glue downward with one f wrap
    for o in (1, 3, 5):
        assert V.op("X", o).data[0][0] == F3.zero
    wraps = [V.op("Y1", (o + 1) % 6).data[0][0] for o in (1, 3, 5)]
    assert sorted(str(v) for v in wraps) == ["1", "1", "2"]


def test_family2_length_validation():
    with pytest.raises(ValueError):
        construct_gwa("AQ", family2("xx", "1"), wp(F3, 1, 1), None, F3)  # 2 not divisible by m=3
    with pytest.raises(ValueError):
        construct_gwa("AQ", family2("", "1"), wp(F3, 1, 1), None, F3)


# make_module and serialization


def test_round_trip():
    V = construct_gwa("AQ", family1(0, "xy"), wp(F3, 1, 1), None, F3)
    W = make_module(V.to_json())
    assert W == V


def test_make_module_parses_each_distinct_text_once(monkeypatch):
    raw = construct_family({"name": "CHAIN_ALT", "params": {"m": 4, "a": ["1"] * 4}}, F9).to_json()
    parse, texts = FieldCtx.parse, []
    monkeypatch.setattr(FieldCtx, "parse", lambda ctx, text: texts.append(text) or parse(ctx, text))
    make_field(FieldSpec.from_json(raw["field"]))
    own = list(texts)  # what building the context reads for itself
    texts.clear()
    V = make_module(raw)
    entries = [raw["q"], *raw["base"]] + [
        c for table in raw["ops"].values() for e in table for row in e["matrix"] for c in row
    ]
    assert len(entries) > 10 * len(set(entries))
    assert sorted(texts) == sorted(own + list(set(entries)))
    assert V.to_json() == raw


def test_make_module_reads_each_operators_sources_once(monkeypatch):
    # membership of an entry's offset is tested against the sources read
    # once per operator, so a wider window makes no more op_sources calls
    sources, calls = WeightModule.op_sources, []
    monkeypatch.setattr(WeightModule, "op_sources", lambda V, name: calls.append(name) or sources(V, name))
    counts = []
    for hi in (2, 40):
        raw = construct_family({"name": "VQ_B_A", "params": {"b": "3", "a": "5"}}, QQ, window=(-hi, hi)).to_json()
        calls.clear()
        assert make_module(raw).to_json() == raw
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert max(counts[0].count(name) for name in set(counts[0])) <= 2


def test_make_module_entry_outside_sources_keeps_its_message():
    raw = construct_gwa("AQ", simple_no_break(), wp(QQ, 5, 3), (-2, 2), QQ).to_json()
    raw["ops"]["X"].append({"offset": 2, "matrix": [["1"]]})
    with pytest.raises(ValueError, match="operator X has a matrix at offset 2 outside its sources"):
        make_module(raw)


def _two_faults(kind):
    """A module file on the window [0, 2] that holds two faults at once."""
    raw = construct_gwa("AQ", simple_no_break(), wp(QQ, 5, 3), (0, 2), QQ).to_json()
    X = raw["ops"]["X"]
    if kind == "label offset":
        raw["spaces"].append({"offset": 99, "dim": 1})
        X[0]["matrix"] = [["1", "2"]]
    elif kind == "ragged":
        X[0]["matrix"] = [["1", "2"], "3"]
    elif kind == "shape":
        X[0]["matrix"] = [[1, 2]]
    elif kind == "shape after entry":
        X[0]["matrix"] = [[1], ["1", "2"]]
    else:
        raw["ops"] = {"X": [], "Y1": []}
    return raw


@pytest.mark.parametrize(
    "kind, message",
    [
        ("label offset", "offset 99 lies outside the module's offset range"),
        ("ragged", "a matrix must be a list of rows, each a list of entries"),
        ("shape", "matrix shape mismatch: expected 1x1"),
        ("shape after entry", "matrix shape mismatch: expected 1x1"),
        ("empty op list", "operator X is missing its matrix at offset 0"),
    ],
)
def test_make_module_names_the_first_of_several_faults(kind, message):
    with pytest.raises(ValueError) as info:
        make_module(_two_faults(kind))
    assert str(info.value) == message


def test_round_trip_windowed():
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, 5, 3), (-2, 2), QQ)
    W = make_module(V.to_json())
    assert W == V


def test_zero_module():
    raw = {
        "field": QQ.spec.to_json(),
        "base": ["0", "3"],
        "kind": "INFINITE",
        "window": [-1, 1],
        "spaces": [],
        "ops": {},
    }
    V = make_module(raw)
    assert V.total_dim() == 0


def test_single_point_on_double_break():
    raw = {
        "field": QQ.spec.to_json(),
        "base": ["0", "1/2"],
        "window": [0, 0],
        "spaces": [{"offset": 0, "dim": 1, "labels": ["v0"]}],
        "ops": {"X": [], "Y": [], "Y1": []},
    }
    V = make_module(raw)
    assert V.dim(0) == 1 and V.has_op("X") and V.has_op("Y") and V.has_op("Y1")


def test_shape_mismatch_rejected():
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, 5, 3), (-1, 1), QQ)
    raw = V.to_json()
    raw["ops"]["X"][0]["matrix"] = [["1", "2"]]
    with pytest.raises(ValueError):
        make_module(raw)


# junction modules


def test_junction_module_windowed():
    # orbit of (0, 1/2) over QQ, q = 2: the double break is link 0
    orbit = compute_orbit(wp(QQ, 0, "1/2"), QQ)
    labels = {k: ("u", "w") if k <= 0 else ("v",) for k in range(-2, 3)}
    y, y1 = Mat(QQ, [[QQ.one], [QQ.zero]]), Mat(QQ, [[QQ.zero], [QQ.one]])
    V = junction_module(QQ, orbit, (-2, 2), labels, 0, Mat.zeros(QQ, 1, 2), y, y1)
    assert V.op("X", -2) is V.op("X", -1)
    assert V.op("X", -1) == Mat.identity(QQ, 2) and V.op("X", 1) == Mat.identity(QQ, 1)
    assert V.op("X", 0) == Mat.zeros(QQ, 1, 2)
    assert V.op("Y", 1) is y and V.op("Y1", 1) is y1
    # off the junction Y and Y1 leaving k are XY = tau - 1 and XY1 = sigma - 1 at k
    assert V.op("Y", 2) == Mat(QQ, [[QQ.one]])
    assert V.op("Y1", 0) == Mat.identity(QQ, 2).scale(QQ.parse("-1/2"))


def test_junction_module_wraps_on_circular_orbit():
    orbit = compute_orbit(wp(F3, 1, 1), F3)
    r = orbit.length
    labels = {k: ("v",) for k in range(r)}
    x, y, y1 = (Mat(F3, [[F3.from_int(c)]]) for c in (0, 1, 2))
    V = junction_module(F3, orbit, None, labels, r - 1, x, y, y1)
    assert V.op("X", r - 1) is x and V.op("Y", 0) is y and V.op("Y1", 0) is y1
    assert all(V.op("X", k) == Mat.identity(F3, 1) for k in range(r - 1))


def test_junction_module_refuses_unequal_dims_off_the_junction():
    orbit = compute_orbit(wp(QQ, 0, "1/2"), QQ)
    labels = {-1: ("u", "w"), 0: ("u",), 1: ("v",)}
    one = Mat(QQ, [[QQ.one]])
    with pytest.raises(ValueError, match="operator X at offset -1 has shape"):
        junction_module(QQ, orbit, (-1, 1), labels, 0, one, one, one)


def test_kind_mismatch_rejected():
    V = construct_gwa("AQ", family1(0, ""), wp(F3, 1, 1), None, F3)
    raw = V.to_json()
    raw["kind"] = "INFINITE"
    with pytest.raises(ValueError):
        make_module(raw)


def test_window_on_circular_rejected():
    V = construct_gwa("AQ", family1(0, ""), wp(F3, 1, 1), None, F3)
    raw = V.to_json()
    raw["window"] = [0, 5]
    with pytest.raises(ValueError):
        make_module(raw)


def test_q_cross_check():
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, 5, 3), (-1, 1), QQ)
    raw = V.to_json()
    raw["q"] = "3"
    with pytest.raises(ValueError):
        make_module(raw)


# restriction


def test_restrict_drops_operator():
    raw = {
        "field": F3.spec.to_json(),
        "base": ["1", "1"],
        "spaces": [{"offset": k, "dim": 1} for k in range(6)],
        "ops": {
            "X": [{"offset": k, "matrix": [["1"]]} for k in range(6)],
            "Y": [{"offset": k, "matrix": [["2"]]} for k in range(6)],
            "Y1": [{"offset": k, "matrix": [["1"]]} for k in range(6)],
        },
    }
    V = make_module(raw)
    A = restrict(V, "AQ")
    assert A.has_op("X") and A.has_op("Y1") and not A.has_op("Y")
    assert restrict(A, "AQ") == A  # idempotent
    B = restrict(V, Subalgebra.A1)
    assert B.has_op("Y") and not B.has_op("Y1")
    assert A.labels == V.labels


def test_restrict_x_only_unchanged():
    raw = {
        "field": QQ.spec.to_json(),
        "base": ["5", "3"],
        "window": [0, 1],
        "spaces": [{"offset": 0, "dim": 1}, {"offset": 1, "dim": 1}],
        "ops": {"X": [{"offset": 0, "matrix": [["7"]]}]},
    }
    V = make_module(raw)
    W = restrict(V, "AQ")
    assert W.labels == V.labels and W.op("X", 0) == V.op("X", 0)
    with pytest.raises(ValueError):
        restrict(V, "D")


def test_orbit_attached():
    V = construct_gwa("AQ", family1(0, ""), wp(F3, 1, 1), None, F3)
    orb = compute_orbit(wp(F3, 1, 1), F3)
    assert V.orbit.length == orb.length == 6
    assert V.tau_scalar(2) == F3.zero or True  # tau at offset 2 is 1+2=0 over F3
    assert V.tau_scalar(2) == F3.from_int(0)
    assert V.sigma_scalar(1) == F3.from_int(2)
