"""Relation checker and polynomial realization tests."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdweight import extend
from qdweight.analyze import direct_sum
from qdweight.basering import MIXED_ID, PRODUCTS, WeightPoint
from qdweight.cli import build_scenario_module, grid_scenarios
from qdweight.families import construct_family
from qdweight.fields import FieldCtx, FieldSpec, make_field
from qdweight.linalg import Mat
from qdweight.verify import RelationReport, check_relations, polynomial_realization
from qdweight.wmod import (
    WeightModule,
    as_subalgebra,
    circ_no_break,
    construct_gwa,
    default_labels,
    family1,
    family2,
    make_module,
    op_names_for,
    restrict,
    simple_no_break,
    with_breaks,
)

QQ = make_field(FieldSpec(kind="RATIONAL", q="2"))
F3 = make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))
F5 = make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="2"))
F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=[1, 0, 1], q="2"))
FF = make_field(FieldSpec(kind="FUNCTION_FIELD"))

PRODUCT_RELS = {
    "YX=tau",
    "XY=alpha(tau)",
    "Y1X=qsigma-1",
    "XY1=alpha(qsigma-1)",
    "Y1(tau-1)=Y(sigma-1)",
}


def wp(ctx, a, b):
    return WeightPoint(ctx.parse(str(a)), ctx.parse(str(b)))


def chain_cycle_raw(a1="1"):
    # hand-built length-6 circular D-module over F3: X shifts up with a gap
    # at the top, Y and Y1 act by k and q^k - 1 with a single Y-wrap
    def mats(coeffs):
        return [{"offset": k, "matrix": [[str(c)]]} for k, c in coeffs.items()]

    return {
        "field": F3.spec.to_json(),
        "base": ["1", "1"],
        "spaces": [{"offset": k, "dim": 1} for k in range(6)],
        "ops": {
            "X": mats({k: 1 for k in range(5)} | {5: 0}),
            "Y": mats({k: k % 3 for k in range(1, 6)} | {0: a1}),
            "Y1": mats({k: (pow(2, k) - 1) % 3 for k in range(1, 6)} | {0: 0}),
        },
    }


# passing modules


def test_simple_no_break_passes():
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, 5, 3), (-3, 3), QQ)
    rep = check_relations(V, "AQ")
    assert rep.passed
    assert rep.checked == 7 * 6 - 6
    assert len(rep.skipped) == 6
    assert {(s["relation"], s["offset"]) for s in rep.skipped} == {
        ("Y1X=qsigma-1", 3),
        ("Xtau=alpha(tau)X", 3),
        ("Xsigma=alpha(sigma)X", 3),
        ("XY1=alpha(qsigma-1)", -3),
        ("Y1tau=alphainv(tau)Y1", -3),
        ("Y1sigma=alphainv(sigma)Y1", -3),
    }


@pytest.mark.parametrize("J,Jp", [((0, 1), ()), ((0, 1), (0,)), ((0,), ()), ((), ())])
def test_with_breaks_passes(J, Jp):
    V = construct_gwa("AQ", with_breaks(J, Jp), wp(QQ, 0, "1/2"), (-3, 3), QQ)
    assert check_relations(V, "AQ").passed


def test_circ_no_break_passes():
    V = construct_gwa("AQ", circ_no_break("[0,1]"), wp(F9, "[0,1]", "[0,1]"), None, F9)
    rep = check_relations(V, "AQ")
    assert rep.passed
    assert rep.checked == 6 * 6 and not rep.skipped


@pytest.mark.parametrize("flavor,word,j", [
    ("A1", "", 0),
    ("A1", "x", 1),
    ("A1", "y", 0),
    ("A1", "xy", 1),
    ("AQ", "", 2),
    ("AQ", "x", 0),
    ("AQ", "yx", 1),
    ("AQ", "xyx", 2),
])
def test_family1_passes(flavor, word, j):
    V = construct_gwa(flavor, family1(j, word), wp(F3, 1, 1), None, F3)
    assert check_relations(V, flavor).passed


@pytest.mark.parametrize("flavor,word", [
    ("AQ", "xxx"),
    ("AQ", "yyy"),
    ("AQ", "xyyyxy"),
    ("A1", "xy"),
    ("A1", "yy"),
    ("A1", "xxyy"),
])
def test_family2_passes(flavor, word):
    V = construct_gwa(flavor, family2(word, "2"), wp(F3, 1, 1), None, F3)
    assert check_relations(V, flavor).passed


def test_hand_built_d_module_passes():
    V = make_module(chain_cycle_raw())
    rep = check_relations(V, "D")
    assert rep.passed
    # D pass implies both flavor restrictions pass
    assert check_relations(restrict(V, "AQ"), "AQ").passed
    assert check_relations(restrict(V, "A1"), "A1").passed


# violations


def remark_module_raw():
    # printed three-step module over F3 with dims 1,1,1,0,0,0
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


def test_remark_module_single_violation():
    V = make_module(remark_module_raw())
    rep = check_relations(V, "D")
    assert not rep.passed
    assert len(rep.violations) == 1
    v = rep.violations[0]
    assert v["relation"] == "Y1X=qsigma-1"
    assert v["offset"] == 2
    assert v["label"] == "v3"
    assert v["computed"] == ["0"]
    assert v["expected"] == ["1"]


def test_garbage_module_violates_only_products():
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
    rep = check_relations(make_module(raw), "D")
    assert not rep.passed
    # graded scalar-twisting laws hold for any graded matrices
    assert all(v["relation"] in PRODUCT_RELS for v in rep.violations)


def test_missing_operator_rejected():
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, 5, 3), (-2, 2), QQ)
    with pytest.raises(ValueError):
        check_relations(V, "D")
    with pytest.raises(ValueError):
        check_relations(V, "A1")


def test_report_json_shape():
    V = make_module(remark_module_raw())
    rep = check_relations(V, "D").to_json()
    assert rep["passed"] is False and rep["checked"] > 0
    assert isinstance(rep["violations"], list) and isinstance(rep["skipped"], list)


# twist laws M c1 = c2 M are decided on their scalars

HERE = Path(__file__).parent
TWIST_PINNED_PATH = HERE / "verify_twist_pinned.json"
PRODUCTS_PINNED_PATH = HERE / "verify_products_pinned.json"
F5 = make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="2"))
CHAIN_ALT_2 = {"name": "CHAIN_ALT", "params": {"m": 2, "a": ["1", "2"]}}
VCD_TWOROW = {"name": "VCD_TWOROW", "params": {"c": "1", "d": "3"}}

TWIST_CASES = [
    ("F5-CHAIN_ALT-tau", CHAIN_ALT_2, F5, None, "tau_scalar", 3),
    ("F5-CHAIN_ALT-sigma", CHAIN_ALT_2, F5, None, "sigma_scalar", 3),
    ("QQ-VCD_TWOROW-sigma", VCD_TWOROW, QQ, (-2, 2), "sigma_scalar", -1),
]


def moved_scalar(scalar, offset):
    """WeightModule's tau or sigma scalar, moved by 1 at one offset."""
    real = getattr(WeightModule, scalar)

    def moved(self, k):
        value = real(self, k)
        return value + self.ctx.one if k == offset else value

    return moved


def moved_report(V, algebra, scalar, offset):
    """check_relations with WeightModule's tau or sigma scalar moved by 1 at one offset."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WeightModule, scalar, moved_scalar(scalar, offset))
        return check_relations(V, algebra).to_json()


def twist_report(fid, ctx, window, scalar, offset):
    return moved_report(construct_family(fid, ctx, window=window), "D", scalar, offset)


@pytest.mark.parametrize("case,fid,ctx,window,scalar,offset", TWIST_CASES)
def test_twist_law_violations_are_pinned(case, fid, ctx, window, scalar, offset):
    # one offset's scalar is moved by 1, so the twist laws that read it see
    # unequal scalars; where the operator is zero there (Y1 at offset 4 of
    # CHAIN_ALT over F5) they still hold.  The pinned reports compare every
    # twist law matrix by matrix.
    pinned = json.loads(TWIST_PINNED_PATH.read_text())
    assert twist_report(fid, ctx, window, scalar, offset) == pinned[case]


# product relations, the mixed relation and the twist laws under D, AQ and
# A1, with a scalar moved by 1 or one operator block scaled

V1_A_B = {"name": "V1_A_B", "params": {"a": "1/2", "b": "3"}}
VQ_F_B_A = {"name": "VQ_F_B_A", "params": {"f": "[1,1]", "b": "[0,1]", "a": "0"}}
CHAIN_ALT_F9 = {"name": "CHAIN_ALT", "params": {"m": 2, "a": ["1", "[0,1]"]}}


def scaled_block(V, name, k, c):
    ops = {op: dict(table) for op, table in V.ops.items()}
    ops[name][k] = ops[name][k].scale(V.ctx.parse(c))
    return V.with_ops(ops)


PRODUCT_CASES = {
    "QQ-V1_A_B-tau": lambda algebra: moved_report(
        construct_family(V1_A_B, QQ, window=(-2, 2)), algebra, "tau_scalar", 0
    ),
    "F9-VQ_F_B_A-sigma": lambda algebra: moved_report(
        construct_family(VQ_F_B_A, F9), algebra, "sigma_scalar", 1
    ),
    # X is in YX, XY, Y1X and XY1; the mixed relation reads Y and Y1 only
    "F9-CHAIN_ALT-X-scaled": lambda algebra: check_relations(
        scaled_block(construct_family(CHAIN_ALT_F9, F9), "X", 0, "2"), algebra
    ).to_json(),
    "F9-CHAIN_ALT-Y1-scaled": lambda algebra: check_relations(
        scaled_block(construct_family(CHAIN_ALT_F9, F9), "Y1", 1, "[0,1]"), algebra
    ).to_json(),
}
ALGEBRAS = ("D", "AQ", "A1")


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_product_relation_reports_are_pinned(case, algebra):
    pinned = json.loads(PRODUCTS_PINNED_PATH.read_text())
    assert PRODUCT_CASES[case](algebra) == pinned[case][algebra]


def test_product_pins_violate_every_product_relation():
    pinned = json.loads(PRODUCTS_PINNED_PATH.read_text())
    violated = {
        v["relation"] for reports in pinned.values() for rep in reports.values() for v in rep["violations"]
    }
    assert PRODUCT_RELS <= violated


def test_twist_laws_with_equal_scalars_scale_nothing(monkeypatch):
    V = construct_family(CHAIN_ALT_2, F5)
    scaled = []
    real_scale = Mat.scale

    def counting_scale(self, c):
        scaled.append(c)
        return real_scale(self, c)

    monkeypatch.setattr(Mat, "scale", counting_scale)
    rep = check_relations(V, "D")
    assert rep.passed and rep.checked == 11 * 20
    # only both sides of Y1(tau-1)=Y(sigma-1) at the junction offset 0,
    # where Y and Y1 are not c I; at the other 19 offsets both are c I and
    # the mixed relation, like the four scalar products, is decided on
    # their entries
    assert len(scaled) == 2


def test_d_check_field_work_is_pinned(monkeypatch):
    # each scalar a relation reads is evaluated once per offset, and the
    # products and the mixed relation of 1 x 1 blocks are decided on their
    # entries: 480 field operations over the 41 offsets, where evaluating
    # the scalars per relation and building every product took 1000; the
    # - 1 of tau - 1, q sigma - 1 and sigma - 1 adds the context's stored
    # -1, where negating 1 at each evaluation took 120 more
    V = construct_family({"name": "VQ_B_A", "params": {"b": "3", "a": "1/2"}}, QQ, window=(-20, 20))
    calls = []
    for name in ("add", "mul", "neg", "inv"):
        real = getattr(FieldCtx, name)
        monkeypatch.setattr(FieldCtx, name, lambda ctx, *xs, _real=real, _name=name: calls.append(_name) or _real(ctx, *xs))
    rep = check_relations(V, "D")
    assert rep.passed and rep.checked == 11 * 40
    assert calls.count("neg") == 0
    assert len(calls) == 480


def test_d_check_reads_each_block_once(monkeypatch):
    # X, Y and Y1 have 40 blocks each; the products read X's twice and
    # the mixed relation reads Y and Y1 beside their products, but each
    # block's c is read from one table filled once per call (640 calls for
    # the flavor check, the solve and the D re-check of one extend before)
    V = construct_family({"name": "VQ_B_A", "params": {"b": "3", "a": "1/2"}}, QQ, window=(-20, 20))
    blocks = [m for name in ("X", "Y", "Y1") for m in V.ops[name].values()]
    assert len(blocks) == 3 * 40
    seen = []
    real = Mat.scalar_value
    monkeypatch.setattr(Mat, "scalar_value", lambda m: seen.append(m) or real(m))
    assert check_relations(V, "D").passed
    assert len(seen) == len(blocks)
    assert all(any(m is b for b in blocks) for m in seen)


def test_extend_checks_are_pinned(monkeypatch):
    # extending the AQ restriction checks AQ's six relations at 40 offsets
    # each, then only the five D relations that read the solved Y: its two
    # products, its two twist laws and the mixed relation (the full D
    # re-check checked all eleven, 440)
    V = construct_family({"name": "VQ_B_A", "params": {"b": "3", "a": "1/2"}}, QQ, window=(-20, 20))
    reports = []
    real = extend.check_relations
    monkeypatch.setattr(extend, "check_relations", lambda *a, **kw: reports.append(real(*a, **kw)) or reports[-1])
    res = extend.extend_to_D(restrict(V, "AQ"))
    assert res.kind == "UNIQUE" and res.representative == V
    assert [(rep.subject, rep.passed, rep.checked) for rep in reports] == [("AQ", True, 6 * 40), ("D", True, 5 * 40)]


# check_relations against the checker that evaluated every scalar per
# relation and built both sides of every product relation


def reference_check_relations(V, algebra):
    algebra = as_subalgebra(algebra)
    for name in op_names_for(algebra):
        if not V.has_op(name):
            raise ValueError(f"module lacks operator {name} required by {algebra.value}")
    ctx = V.ctx
    one, q = ctx.one, ctx.q

    def up(k):
        return V.op_target("X", k)

    def dn(k):
        return V.op_target("Y", k)

    tau, sigma = V.tau_scalar, V.sigma_scalar

    def scaled_id(f, k):
        return Mat.scalar(ctx, V.dim(k), V.scalar(f, k))

    def lowering(T):
        rel = PRODUCTS[T]
        return [
            (rel.tx_id, "up", False, lambda k: (V.op(T, up(k)) * V.op("X", k), scaled_id(rel.tx, k))),
            (rel.xt_id, "down", False, lambda k: (V.op("X", dn(k)) * V.op(T, k), scaled_id(rel.xt, k))),
            (f"{T}tau=alphainv(tau){T}", "down", True, lambda k: (V.op(T, k), tau(k), tau(dn(k)) + one)),
            (f"{T}sigma=alphainv(sigma){T}", "down", True, lambda k: (V.op(T, k), sigma(k), q * sigma(dn(k)))),
        ]

    lowered = [T for T in op_names_for(algebra) if T in PRODUCTS]
    rels = [r for T in lowered for r in lowering(T)]
    if len(lowered) == 2:
        def mixed(k):
            xy, xy1 = V.scalar(PRODUCTS["Y"].xt, k), V.scalar(PRODUCTS["Y1"].xt, k)
            return V.op("Y1", k).scale(xy), V.op("Y", k).scale(xy1)

        rels.append((MIXED_ID, "down", False, mixed))
    rels += [
        ("Xtau=alpha(tau)X", "up", True, lambda k: (V.op("X", k), tau(k), tau(up(k)) - one)),
        ("Xsigma=alpha(sigma)X", "up", True, lambda k: (V.op("X", k), sigma(k), sigma(up(k)) / q)),
    ]

    report = RelationReport(subject=algebra.value)
    lo, hi = (None, None) if V.circular else V.window
    rels.sort(key=lambda r: r[0])
    for k in V.offsets():
        for rel_id, direction, is_twist, build in rels:
            if not V.circular:
                if direction == "up" and k == hi or direction == "down" and k == lo:
                    report.skipped.append({"relation": rel_id, "offset": k, "reason": "window-edge"})
                    continue
            report.checked += 1
            if is_twist:
                M, c1, c2 = build(k)
                if c1 == c2:
                    continue
                computed, expected = M.scale(c1), M.scale(c2)
            else:
                computed, expected = build(k)
            if computed != expected:
                labels = V.label_list(k)
                for j in range(computed.cols):
                    if computed.col(j) != expected.col(j):
                        report.violations.append(
                            {
                                "relation": rel_id,
                                "offset": k,
                                "label": labels[j],
                                "computed": [ctx.show(v) for v in computed.col(j)],
                                "expected": [ctx.show(v) for v in expected.col(j)],
                            }
                        )
    return report


F7 = make_field(FieldSpec(kind="PRIME_FIELD", p=7, q="2"))
ORACLE_PRIME_BASES = [
    ({"name": "CHAIN_ALT", "params": {"m": 2, "a": ["1", "2"]}}, F5),
    ({"name": "CHAIN_CYCLE", "params": {"m": 1, "word": "Y1", "a": ["3"]}}, F7),
    ({"name": "CHAIN_CYCLE", "params": {"m": 2, "word": "YY1", "a": ["1", "2"]}}, F5),
]


def oracle_bases():
    """Every grid scenario module, prime-field D-modules and one-flavour GWA modules."""
    bases = [build_scenario_module(sc) for sc in grid_scenarios()]
    bases += [construct_family(fid, ctx) for fid, ctx in ORACLE_PRIME_BASES]
    bases.append(make_module(chain_cycle_raw()))
    bases.append(construct_gwa("AQ", with_breaks((0, 1), (0,)), wp(QQ, 0, "1/2"), (-3, 3), QQ))
    bases.append(construct_gwa("A1", family1(1, "xy"), wp(F3, 1, 1), None, F3))
    bases.append(construct_gwa("AQ", family2("xyyyxy", "2"), wp(F3, 1, 1), None, F3))
    bases.append(construct_gwa("AQ", circ_no_break("[0,1]"), wp(F9, "[0,1]", "[0,1]"), None, F9))
    return bases


def element_pool(V):
    ctx = V.ctx
    pool = [ctx.zero, ctx.one, ctx.from_int(2), -ctx.one, ctx.q, ctx.q + ctx.one]
    for k in V.offsets()[:3]:
        pool += [V.tau_scalar(k), V.sigma_scalar(k) - ctx.one]
    return pool


def random_block(rng, ctx, rows, cols, pool, kinds):
    kind = rng.choice(["zero", "scalar", "scalar", "random"] if rows == cols else ["zero", "random"])
    kinds.add(kind)
    if kind == "zero":
        return Mat.zeros(ctx, rows, cols)
    if kind == "scalar":
        return Mat.scalar(ctx, rows, rng.choice(pool))
    return Mat(ctx, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)], cols=cols)


def random_module(rng, V, kinds):
    """A module on V's orbit and window with dims 0-3 and zero, c 1 or random blocks."""
    ctx, pool = V.ctx, element_pool(V)
    even = rng.randint(0, 3)
    dims = {k: even if rng.random() < 0.5 else rng.randint(0, 3) for k in V.offsets()}
    shell = WeightModule(ctx, V.orbit, V.window, {k: default_labels(k, d) for k, d in dims.items()}, {})
    ops = {}
    for name in V.ops:
        ops[name] = {
            k: random_block(rng, ctx, dims[shell.op_target(name, k)], dims[k], pool, kinds)
            for k in shell.op_sources(name)
        }
    return shell.with_ops(ops)


def variants(rng, V, kinds):
    """(module, moved scalar or None, offset): V, V + V, a moved tau or sigma,
    one scaled block, and a random module on V's orbit."""
    yield V, None, None
    yield direct_sum(V, V), None, None
    k = rng.choice(V.offsets())
    yield V, rng.choice(["tau_scalar", "sigma_scalar"]), k
    name = rng.choice(sorted(V.ops))
    k = rng.choice(V.op_sources(name))
    yield scaled_block(V, name, k, V.ctx.show(rng.choice(element_pool(V)))), None, None
    R = random_module(rng, V, kinds)
    yield R, None, None
    yield R, rng.choice(["tau_scalar", "sigma_scalar"]), rng.choice(R.offsets())


def relation_blocks(V, rel_id, k):
    """The two blocks a product or the mixed relation multiplies at k."""
    if rel_id == MIXED_ID:
        return V.op("Y1", k), V.op("Y", k)
    for T, rel in PRODUCTS.items():
        if rel_id == rel.tx_id:
            return V.op(T, V.op_target("X", k)), V.op("X", k)
        if rel_id == rel.xt_id:
            return V.op("X", V.op_target("Y", k)), V.op(T, k)


def tally_scalar_blocks(V, algebra, report, seen):
    """Count the instances of products and the mixed relation on two c 1
    blocks of nonzero size: those that hold, and those that are violated."""
    lowered = [T for T in op_names_for(algebra) if T in PRODUCTS]
    rel_ids = [r for T in lowered for r in (PRODUCTS[T].tx_id, PRODUCTS[T].xt_id)]
    rel_ids += [MIXED_ID] if len(lowered) == 2 else []
    skipped = {(s["relation"], s["offset"]) for s in report["skipped"]}
    violated = {(v["relation"], v["offset"]) for v in report["violations"]}
    for k in V.offsets():
        for rel_id in rel_ids:
            if (rel_id, k) in skipped:
                continue
            blocks = relation_blocks(V, rel_id, k)
            if V.dim(k) and blocks[0].rows and all(b.scalar_value() is not None for b in blocks):
                seen["c1 violated" if (rel_id, k) in violated else "c1 holds"] += 1


def test_check_relations_matches_reference():
    rng = random.Random(20240623)
    seen = {"c1 holds": 0, "c1 violated": 0}
    kinds, dims, fields, shapes, violated, mismatches = set(), set(), set(), set(), set(), []
    for base in oracle_bases():
        for V, scalar, offset in variants(rng, base, kinds):
            fields.add(V.ctx.spec.kind)
            shapes.add(V.circular)
            dims.update(V.dim(k) for k in V.offsets())
            for algebra in ALGEBRAS:
                if not all(V.has_op(name) for name in op_names_for(algebra)):
                    continue
                with pytest.MonkeyPatch.context() as mp:
                    if scalar is not None:
                        mp.setattr(WeightModule, scalar, moved_scalar(scalar, offset))
                    want = reference_check_relations(V, algebra).to_json()
                    got = check_relations(V, algebra).to_json()
                if got != want:
                    mismatches.append((repr(V), algebra, scalar, offset))
                violated.update(v["relation"] for v in want["violations"])
                tally_scalar_blocks(V, algebra, want, seen)
    assert mismatches == []
    assert fields == {"RATIONAL", "CYCLOTOMIC", "FUNCTION_FIELD", "PRIME_FIELD", "EXT_FIELD"}
    assert shapes == {True, False} and {0, 1, 2, 3} <= dims
    assert kinds == {"zero", "scalar", "random"}
    assert violated == {
        *PRODUCT_RELS,
        *(f"{T}{f}=alphainv({f}){T}" for T in ("Y", "Y1") for f in ("tau", "sigma")),
        "Xtau=alpha(tau)X",
        "Xsigma=alpha(sigma)X",
    }
    assert seen["c1 holds"] >= 20 and seen["c1 violated"] >= 10, seen


# random GWA constructions pass their flavor's relations


@settings(max_examples=60, deadline=None)
@given(
    flavor=st.sampled_from(["AQ", "A1"]),
    j=st.integers(0, 5),
    word=st.text(alphabet="xy", max_size=4),
    a=st.integers(0, 2),
    b=st.integers(1, 2),
)
def test_family1_property(flavor, j, word, a, b):
    V = construct_gwa(flavor, family1(j, word), wp(F3, a, b), None, F3)
    assert check_relations(V, flavor).passed


@settings(max_examples=40, deadline=None)
@given(
    aa=st.integers(-4, 4),
    bb=st.integers(2, 5),
    length=st.integers(2, 4),
)
def test_simple_no_break_property(aa, bb, length):
    # b a power of 2 would put a break on the sigma side; 3,5 never are
    if bb in (2, 4):
        bb += 1
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, aa, bb), (-length, length), QQ)
    assert check_relations(V, "AQ").passed


# polynomial realization


def test_realization_function_field():
    mats, rep = polynomial_realization(FF, 4)
    t = FF.q
    # d1(x^2) = (t+1) x
    assert mats["d1"].data[1][2] == t + FF.one
    # d(x^3) = 3 x^2
    assert mats["d"].data[2][3] == FF.from_int(3)
    # d1(1) = 0
    assert all(not mats["d1"].data[i][0] for i in range(5))
    assert rep.passed
    assert rep.checked == 12 * 4


def test_realization_work_count_is_pinned(monkeypatch):
    # products skip zero entries of both factors: the shift, bidiagonal and
    # diagonal factors of the realization cost 389 field products, not 3032
    calls = []
    mul = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul", lambda ctx, x, y: calls.append(1) or mul(ctx, x, y))
    _, rep = polynomial_realization(FF, 8)
    assert rep.passed
    assert len(calls) == 389


def test_realization_finite_field():
    mats, rep = polynomial_realization(F5, 3)
    assert rep.passed
    # sigma is diag(1, q, q^2, q^3)
    assert mats["sigma"].data[2][2] == F5.from_int(4)


def test_realization_rejects_q_one():
    Q1 = make_field(FieldSpec(kind="RATIONAL", q="1"))
    with pytest.raises(ValueError):
        polynomial_realization(Q1, 4)


def test_realization_rejects_small_n():
    with pytest.raises(ValueError):
        polynomial_realization(FF, 1)


def test_realization_skips_top_degree():
    _, rep = polynomial_realization(FF, 3)
    assert all(s["degree"] == 3 for s in rep.skipped)
    assert len(rep.skipped) == 12


if __name__ == "__main__":
    # re-record both verify pins from the current checker:
    #     PYTHONPATH=src python tests/test_verify.py
    def dump(path, data):
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    dump(TWIST_PINNED_PATH, {case: twist_report(*rest) for case, *rest in TWIST_CASES})
    dump(
        PRODUCTS_PINNED_PATH,
        {case: {a: build(a) for a in ALGEBRAS} for case, build in PRODUCT_CASES.items()},
    )
