"""Tests for extending one-flavor modules to the full operator algebra."""

import json
import random
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdweight.basering import PRODUCTS, WeightPoint
from qdweight.analyze import direct_sum
from qdweight import verify
from qdweight.cli import canonical_json, load_module
from qdweight.extend import FAMILY, IMPOSSIBLE, UNIQUE, ExtensionResult, _conflict_json, extend_to_D, solve_blocks
from qdweight.families import construct_family
from qdweight.fields import Fel, FieldSpec, make_field
from qdweight.linalg import Echelon, Mat
from qdweight.orbits import compute_orbit
from qdweight.verify import check_relations
from qdweight.wmod import (
    WeightModule,
    circ_no_break,
    construct_gwa,
    restrict,
    simple_no_break,
    with_breaks,
)

QQ = make_field(FieldSpec(kind="RATIONAL", q="2"))
F3 = make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))
F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=[1, 0, 1], q="2"))


def wp(ctx, a, b):
    return WeightPoint(ctx.parse(str(a)), ctx.parse(str(b)))


def fam(name, params, ctx, window=None):
    return construct_family({"name": name, "params": params}, ctx, window=window)


def aq_break_module(ctx, a):
    """X and Y1 on a full line through (a, 1/q), X vanishing at its sigma break."""
    return construct_gwa("AQ", with_breaks([0, 1], []), wp(ctx, a, "1/2"), (-3, 3), ctx)


def a1_break_module(ctx, b):
    """X and Y on a full line through (0, b), X vanishing at its tau break."""
    return construct_gwa("A1", with_breaks([0, 1], []), wp(ctx, 0, b), (-3, 3), ctx)


def assert_sound(V, res):
    """Structural invariants every extension result must satisfy."""
    if res.kind == IMPOSSIBLE:
        assert res.representative is None
        assert set(res.conflict) >= {"relation", "offset"}
        return
    rep = res.representative
    assert check_relations(rep, "D").passed
    # the input's own operators come through untouched
    for name in V.ops:
        assert rep.ops[name] == V.ops[name]
    if res.kind == UNIQUE:
        assert res.k == 0 and not res.homogeneous_basis
    else:
        assert res.k == len(res.homogeneous_basis) >= 1


def match_one_parameter_family(res, target):
    """For a k=1 family, the coefficient putting the member on target, if any."""
    assert res.k == 1
    table, (maps,) = res.representative.ops[res.missing], res.homogeneous_basis
    for k, m in maps.items():
        for i, row in enumerate(m.data):
            for j, v in enumerate(row):
                if v:
                    want = target.ops[res.missing][k].data[i][j]
                    return (want - table[k].data[i][j]) / v
    raise AssertionError("homogeneous basis vector is zero")


# the three outcomes on the sigma-side break line


def test_break_with_nonzero_tau_is_impossible():
    res = extend_to_D(aq_break_module(QQ, 1))
    assert res.kind == IMPOSSIBLE
    assert res.missing == "Y"
    assert res.conflict["relation"] == "YX=tau"
    assert res.conflict["offset"] == 0
    assert res.conflict["equation"] == {"lhs": "0", "rhs": "1"}
    assert_sound(aq_break_module(QQ, 1), res)


def test_break_with_zero_tau_gives_one_parameter_family():
    V = aq_break_module(QQ, 0)
    res = extend_to_D(V)
    assert res.kind == FAMILY
    assert res.missing == "Y"
    assert res.k == 1
    assert_sound(V, res)
    # the representative is the junction family at d = 0
    assert res.representative == fam("VQ_JJ_CD", {"c": "1", "d": "0"}, QQ, window=(-3, 3))
    # the free direction is exactly the junction coefficient
    d5 = fam("VQ_JJ_CD", {"c": "1", "d": "5"}, QQ, window=(-3, 3))
    assert res.member([QQ.parse("5")]) == d5


def test_invertible_x_forces_unique_extension():
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, "1/2", 3), (-2, 2), QQ)
    res = extend_to_D(V)
    assert res.kind == UNIQUE
    assert_sound(V, res)
    assert res.representative == fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-2, 2))


def test_circular_extension_is_unique_and_matches_twisted_family():
    V = construct_gwa("AQ", circ_no_break("2"), wp(F9, "[0,1]", "[0,1]"), None, F9)
    res = extend_to_D(V)
    assert res.kind == UNIQUE
    assert_sound(V, res)
    twisted = fam("VQ_F_B_A", {"f": "2", "b": "[0,1]", "a": "[0,1]"}, F9)
    assert res.representative == twisted

    from qdweight.analyze import are_isomorphic

    assert are_isomorphic(res.representative, twisted, "D").is_yes


# the mirrored outcomes on the tau-side break line


def test_tau_break_with_wrong_sigma_is_impossible():
    res = extend_to_D(a1_break_module(QQ, 1))
    assert res.kind == IMPOSSIBLE
    assert res.missing == "Y1"
    assert res.conflict["relation"] == "Y1X=qsigma-1"
    assert res.conflict["offset"] == 0
    assert res.conflict["equation"] == {"lhs": "0", "rhs": "1"}


def test_tau_break_with_matching_sigma_gives_family():
    V = a1_break_module(QQ, "1/2")
    res = extend_to_D(V)
    assert res.kind == FAMILY
    assert res.missing == "Y1"
    assert res.k == 1
    assert_sound(V, res)
    assert res.representative == fam("V1_JJ_CD", {"c": "1", "d": "0"}, QQ, window=(-3, 3))
    d7 = fam("V1_JJ_CD", {"c": "1", "d": "7"}, QQ, window=(-3, 3))
    assert res.member([QQ.parse("7")]) == d7


def test_circular_tau_side_extension_matches_twisted_family():
    V = construct_gwa("A1", circ_no_break("2"), wp(F9, "[0,1]", "[0,1]"), None, F9)
    res = extend_to_D(V)
    assert res.kind == UNIQUE
    assert_sound(V, res)
    assert res.representative == fam("V1_F_A_B", {"f": "2", "a": "[0,1]", "b": "[0,1]"}, F9)


# round trips: restrict a full module, then solve the dropped operator back


@pytest.mark.parametrize("flavor", ["AQ", "A1"])
def test_twisted_family_roundtrip(flavor):
    full = fam("VQ_F_B_A", {"f": "2", "b": "[0,1]", "a": "[0,1]"}, F9)
    res = extend_to_D(restrict(full, flavor))
    assert res.kind == UNIQUE
    assert res.representative == full


@pytest.mark.parametrize("flavor", ["AQ", "A1"])
def test_chain_roundtrip_recovers_original(flavor):
    full = fam("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": ["1"]}, F3)
    V = restrict(full, flavor)
    res = extend_to_D(V)
    assert_sound(V, res)
    if res.kind == UNIQUE:
        assert res.representative == full
    else:
        assert res.kind == FAMILY and res.k == 1
        c = match_one_parameter_family(res, full)
        assert res.member([c]) == full


def test_defective_circular_module_is_rejected_on_the_defective_side():
    remark = fam("REMARK_136", {}, F3)
    with pytest.raises(ValueError, match="Y1X=qsigma-1 fails at offset 2"):
        extend_to_D(restrict(remark, "AQ"))


def test_defect_rediscovered_when_solving_from_the_clean_side():
    remark = fam("REMARK_136", {}, F3)
    V = restrict(remark, "A1")
    assert check_relations(V, "A1").passed
    res = extend_to_D(V)
    assert res.kind == IMPOSSIBLE
    assert res.conflict["relation"] == "Y1X=qsigma-1"
    assert res.conflict["offset"] == 2
    assert res.conflict["equation"] == {"lhs": "0", "rhs": "1"}


# degenerate inputs


def test_single_offset_window_has_nothing_to_solve():
    V = construct_gwa("AQ", simple_no_break(), wp(QQ, "1/2", 3), (0, 0), QQ)
    res = extend_to_D(V)
    assert res.kind == UNIQUE
    assert res.representative.ops["Y"] == {}
    assert check_relations(res.representative, "D").passed


def test_zero_circular_module_extends_uniquely():
    orbit = compute_orbit(wp(F3, 1, 1), F3)
    V = WeightModule(F3, orbit, None, {}, {"X": {}, "Y1": {}})
    res = extend_to_D(V)
    assert res.kind == UNIQUE
    assert res.representative.total_dim() == 0


def test_extension_preconditions():
    full = fam("VQ_F_B_A", {"f": "2", "b": "[0,1]", "a": "[0,1]"}, F9)
    with pytest.raises(ValueError, match="both Y and Y1"):
        extend_to_D(full)
    with pytest.raises(ValueError, match="exactly one of Y, Y1"):
        extend_to_D(full.with_ops({"X": full.ops["X"]}))
    with pytest.raises(ValueError, match="needs the X operator"):
        extend_to_D(full.with_ops({"Y1": full.ops["Y1"]}))


def test_member_coefficient_count_checked():
    res = extend_to_D(aq_break_module(QQ, 0))
    with pytest.raises(ValueError, match="coefficients"):
        res.member([])
    res_bad = extend_to_D(aq_break_module(QQ, 1))
    with pytest.raises(ValueError, match="no members"):
        res_bad.member([])


# serialization and determinism


def test_result_json_shapes():
    bad = extend_to_D(aq_break_module(QQ, 1)).to_json()
    assert set(bad) == {"kind", "missing", "conflict"}
    assert bad["kind"] == "IMPOSSIBLE"

    unique = extend_to_D(
        construct_gwa("AQ", simple_no_break(), wp(QQ, "1/2", 3), (-2, 2), QQ)
    ).to_json()
    assert set(unique) == {"kind", "missing", "representative"}

    fam_json = extend_to_D(aq_break_module(QQ, 0)).to_json()
    assert set(fam_json) == {"kind", "missing", "k", "representative", "homogeneous_basis"}
    assert fam_json["k"] == 1
    (basis_vec,) = fam_json["homogeneous_basis"]
    assert {entry["offset"] for entry in basis_vec} == set(range(-2, 4))
    by_offset = {entry["offset"]: entry["matrix"] for entry in basis_vec}
    assert by_offset[1] == [["1"]]
    assert all(m == [["0"]] for k, m in by_offset.items() if k != 1)


def test_extension_is_deterministic():
    first = extend_to_D(aq_break_module(QQ, 0)).to_json()
    second = extend_to_D(aq_break_module(QQ, 0)).to_json()
    assert first == second


# property: every member of a family passes, and the family dimension is a
# basis-independent invariant


@settings(max_examples=25, deadline=None)
@given(c=st.integers(min_value=-8, max_value=8))
def test_every_family_member_passes_full_relations(c):
    res = extend_to_D(aq_break_module(QQ, 0))
    member = res.member([QQ.from_int(c)])
    assert check_relations(member, "D").passed


@settings(max_examples=25, deadline=None)
@given(scales=st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=7, max_size=7))
def test_family_dimension_survives_basis_rescaling(scales):
    V = aq_break_module(QQ, 0)
    lo, hi = V.window
    s = {k: QQ.from_int(c) for k, c in zip(range(lo, hi + 1), scales)}
    ops = {}
    for name, table in V.ops.items():
        scaled = {}
        for k, m in table.items():
            t = V.op_target(name, k)
            scaled[k] = m.scale(s[k] / s[t])
        ops[name] = scaled
    res = extend_to_D(V.with_ops(ops))
    assert res.kind == FAMILY
    assert res.k == 1
    assert_sound(V.with_ops(ops), res)


# the per-block solve against the whole system


def expand(ctx, widths, instances):
    """Instances with each scalar one, a Z = c 1 on an n x n block, as its
    n^2 dense single-term rows."""
    out = []
    for b, rows, rhs in instances:
        if isinstance(rows, Fel):
            a, c, w = rows, rhs, widths[b]
            n = isqrt(w)
            rows = [[a if j == i else ctx.zero for j in range(w)] for i in range(w)]
            rhs = [c if i % (n + 1) == 0 else ctx.zero for i in range(w)]
        out.append((b, rows, rhs))
    return out


def prefix_oracle(ctx, widths, instances):
    """Index of the first instance whose prefix the whole system's solve rejects."""
    n = sum(widths)
    base = [sum(widths[:b]) for b in range(len(widths))]
    rows, rhs = [], []
    for index, (b, block_rows, block_rhs) in enumerate(expand(ctx, widths, instances)):
        for row, c in zip(block_rows, block_rhs):
            full = [ctx.zero] * n
            full[base[b] : base[b] + widths[b]] = row
            rows.append(full)
            rhs.append(c)
        if n == 0:
            rejected = any(rhs)
        else:
            rejected = Mat(ctx, rows, cols=n).solve(Mat.column(ctx, rhs)) is None
        if rejected:
            return index
    return None


def global_solution(ctx, widths, instances):
    """Particular solution and kernel basis of the whole system, as flat lists."""
    n = sum(widths)
    base = [sum(widths[:b]) for b in range(len(widths))]
    rows, rhs = [], []
    for b, block_rows, block_rhs in expand(ctx, widths, instances):
        for row, c in zip(block_rows, block_rhs):
            full = [ctx.zero] * n
            full[base[b] : base[b] + widths[b]] = row
            rows.append(full)
            rhs.append(c)
    if not rows:
        return [ctx.zero] * n, [[ctx.one if i == j else ctx.zero for i in range(n)] for j in range(n)]
    if n == 0:
        return [], []
    system = Mat(ctx, rows, cols=n)
    particular = system.solve(Mat.column(ctx, rhs))
    return particular.col(0), [v.col(0) for v in system.nullspace()]


def random_instances(ctx, rng, widths, count):
    """Generic instances, and on square blocks scalar ones (b, a, c) half the time."""
    elements = list(ctx.all_elements())
    out = []
    for _ in range(count):
        b = rng.randrange(len(widths))
        if widths[b] in (1, 4) and rng.random() < 0.5:
            out.append((b, rng.choice(elements), rng.choice(elements)))
            continue
        nrows = rng.randint(1, 3)
        rows = [
            [rng.choice(elements) if rng.random() < 0.4 else ctx.zero for _ in range(widths[b])]
            for _ in range(nrows)
        ]
        rhs = [rng.choice(elements) if rng.random() < 0.3 else ctx.zero for _ in range(nrows)]
        out.append((b, rows, rhs))
    return out


def as_terms(instances):
    """Instances with dense rows as solve_blocks takes them: each row its nonzero (unknown, coefficient) terms."""
    return [
        (b, rows if isinstance(rows, Fel) else [[(j, c) for j, c in enumerate(row) if c] for row in rows], rhs)
        for b, rows, rhs in instances
    ]


@pytest.mark.parametrize("seed", range(60))
def test_solve_blocks_matches_whole_system(seed):
    rng = random.Random(seed)
    ctx = (F3, F9)[seed % 2]
    widths = [rng.choice([0, 1, 2, 3, 4]) for _ in range(rng.randint(1, 4))]
    instances = random_instances(ctx, rng, widths, rng.randint(0, 8))
    conflict, particular, kernel = solve_blocks(ctx, widths, as_terms(instances))
    assert conflict == prefix_oracle(ctx, widths, instances)
    if conflict is None:
        assert (particular, kernel) == global_solution(ctx, widths, instances)


def test_solve_blocks_holds_a_scalar_block_as_free_or_pinned():
    zero, one, two = F3.zero, F3.one, F3.from_int(2)
    units = [[one if i == j else zero for i in range(4)] for j in range(4)]
    # free: particular 0 and the 4 unit vectors, row-major
    assert solve_blocks(F3, [4], [(0, zero, zero)]) == (None, [zero] * 4, units)
    # 2 Z = 1 pins Z = 2 1, and 1 Z = 2 1 agrees
    assert solve_blocks(F3, [4], [(0, two, one), (0, one, two)]) == (None, [two, zero, zero, two], [])
    # a != 0 against the pinned t, and 0 = c on a free block
    assert solve_blocks(F3, [4], [(0, two, one), (0, one, one)]) == (1, None, None)
    assert solve_blocks(F3, [4], [(0, zero, zero), (0, zero, one)]) == (1, None, None)
    # a generic instance after a pin meets the rows of Z = 2 1
    pinned_then_row = [(0, two, one), (0, [[(1, one)]], [one])]
    assert solve_blocks(F3, [4], pinned_then_row) == (1, None, None)
    # a conflict with a = 0 shows its 0 = c, one with a != 0 shows no equation
    assert _conflict_json(F3, [4], ("r", 5, 0, zero, two)) == {
        "relation": "r",
        "offset": 5,
        "equation": {"lhs": "0", "rhs": "2"},
    }
    assert _conflict_json(F3, [4], ("r", 5, 0, one, two)) == {"relation": "r", "offset": 5}


def count_inserts(monkeypatch):
    calls = []
    real = Echelon.insert_terms
    monkeypatch.setattr(Echelon, "insert_terms", lambda self, vec: calls.append(1) or real(self, vec))
    return calls


@pytest.mark.parametrize(
    "build",
    [
        lambda: copies(aq_break_module(QQ, 0), 3),
        lambda: copies(a1_break_module(QQ, 1), 2),
        lambda: copies(restrict(fam("VQ_B_A", {"b": "2", "a": "[0,1]"}, FF, window=(-3, 3)), "AQ"), 2),
        lambda: construct_gwa("AQ", circ_no_break("2"), wp(F9, "[0,1]", "[0,1]"), None, F9),
    ],
    ids=["family", "impossible", "unique", "circular"],
)
def test_an_all_scalar_input_inserts_no_rows(monkeypatch, build):
    V = build()
    calls = count_inserts(monkeypatch)
    extend_to_D(V)
    assert calls == []


def test_f5_alt4_inserts_only_its_junction_block(monkeypatch):
    V = f5_alt4_aq()
    # one junction link, X and Y1 on it 4 x 4 and not c 1: its three
    # instances are 3 * 4^2 rows, and the other 19 blocks are c 1
    calls = count_inserts(monkeypatch)
    res = extend_to_D(V)
    assert res.kind == FAMILY and len(calls) == 3 * 4**2


def test_solve_blocks_reports_the_earliest_conflict_even_in_a_higher_block():
    one, two = F3.one, F3.from_int(2)
    instances = [
        (1, [[one]], [one]),  # block 1: x1 = 1
        (1, [[one]], [two]),  # block 1: x1 = 2, inconsistent here
        (0, [[one]], [one]),  # block 0: x0 = 1
        (0, [[two]], [one]),  # block 0: 2 x0 = 1, inconsistent later
    ]
    assert solve_blocks(F3, [1, 1], as_terms(instances)) == (1, None, None)
    assert prefix_oracle(F3, [1, 1], instances) == 1
    # without the block-1 clash, the block-0 one is the first
    assert solve_blocks(F3, [1, 1], as_terms(instances[:1] + instances[2:]))[0] == 2


def test_solve_blocks_zero_width_block_checks_its_rhs():
    one, zero = F3.one, F3.zero
    fine = (0, [[one, zero]], [one])
    assert solve_blocks(F3, [2, 0], as_terms([fine, (1, [[]], [zero])])) == (None, [one, zero], [[zero, one]])
    assert solve_blocks(F3, [2, 0], as_terms([fine, (1, [[]], [one])])) == (1, None, None)
    assert prefix_oracle(F3, [2, 0], [fine, (1, [[]], [one])]) == 1


# canonical JSON of the whole-system solve, which the per-block one reproduces

PINNED = json.loads((Path(__file__).parent / "extend_pinned.json").read_text())

FF = make_field(FieldSpec(kind="FUNCTION_FIELD"))
C5 = make_field(FieldSpec(kind="CYCLOTOMIC", n=5))
F5 = make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="2"))


def copies(V, n):
    out = V
    for _ in range(n - 1):
        out = direct_sum(out, V)
    return out


def y1_vanishes_at_break(ctx, a):
    """X = 1 on the AQ break line through (a, 1/q), so Y1 = 0 at the break's
    link and X Y1 = sigma - 1 is 0 one offset above it."""
    V = aq_break_module(ctx, a)
    one = Mat.identity(ctx, 1)
    X = {k: one for k in V.op_sources("X")}
    Y1 = {s: Mat.scalar(ctx, 1, V.scalar(PRODUCTS["Y1"].tx, s - 1)) for s in V.op_sources("Y1")}
    return V.with_ops({"X": X, "Y1": Y1})


def f5_alt4_aq():
    return restrict(fam("CHAIN_ALT", {"m": 4, "a": ["1", "1", "1", "1"]}, F5), "AQ")


PINNED_CASES = [
    ("impossible_aq_x2", lambda: direct_sum(aq_break_module(QQ, 1), aq_break_module(QQ, 1))),
    ("family_aq_x2", lambda: direct_sum(aq_break_module(QQ, 0), aq_break_module(QQ, 0))),
    (
        "unique_f9_circular_aq",
        lambda: construct_gwa("AQ", circ_no_break("2"), wp(F9, "[0,1]", "[0,1]"), None, F9),
    ),
    # a free 3 x 3 block: its kernel is the 9 unit vectors, row-major
    ("family_a1_x3", lambda: copies(a1_break_module(QQ, "1/2"), 3)),
    # X = 0 at the break: the conflict is 0 = b and shows its equation
    ("impossible_a1_x2", lambda: copies(a1_break_module(QQ, 1), 2)),
    (
        "unique_ff_aq_x2",
        lambda: copies(restrict(fam("VQ_B_A", {"b": "2", "a": "[0,1]"}, FF, window=(-3, 3)), "AQ"), 2),
    ),
    (
        "unique_c5_a1_x2",
        lambda: copies(restrict(fam("V1_A_B", {"a": "[0,1]", "b": "2"}, C5, window=(-3, 3)), "A1"), 2),
    ),
    # the mixed relation reads 0 T' = 0 on the block above the break
    ("unique_y1_vanishes_x2", lambda: copies(y1_vanishes_at_break(QQ, "1/3"), 2)),
    # c·1 blocks beside the generic junction block
    ("family_f5_alt4_aq", lambda: f5_alt4_aq()),
]


@pytest.mark.parametrize("name, build", PINNED_CASES)
def test_extend_json_is_pinned(name, build):
    assert canonical_json(extend_to_D(build()).to_json()) == PINNED[name]


# the re-check of each representative: the D relations that read the
# solved operator, which with the flavor check make up the full D check

# the operators each D relation reads, from its statement
READS = {
    "YX=tau": {"Y", "X"},
    "XY=alpha(tau)": {"X", "Y"},
    "Ytau=alphainv(tau)Y": {"Y"},
    "Ysigma=alphainv(sigma)Y": {"Y"},
    "Y1X=qsigma-1": {"Y1", "X"},
    "XY1=alpha(qsigma-1)": {"X", "Y1"},
    "Y1tau=alphainv(tau)Y1": {"Y1"},
    "Y1sigma=alphainv(sigma)Y1": {"Y1"},
    "Y1(tau-1)=Y(sigma-1)": {"Y1", "Y"},
    "Xtau=alpha(tau)X": {"X"},
    "Xsigma=alpha(sigma)X": {"X"},
}


def bench_extension_inputs(workdir):
    """The input module of every op of the extension benchmark workload."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [(op.id, load_module(op.info["module"])) for op in workloads.build("extension", str(workdir), 3)]


def record_instances(monkeypatch):
    """Record the (relation, offset) instances each check_relations call checks."""
    runs = []
    real = verify._relations

    def spy(V, algebra):
        seen = set()
        runs.append(seen)

        def wrap(rel_id, check):
            return lambda k: seen.add((rel_id, k)) or check(k)

        return [(rel_id, d, reads, wrap(rel_id, check)) for rel_id, d, reads, check in real(V, algebra)]

    monkeypatch.setattr(verify, "_relations", spy)
    return runs


def test_recheck_reads_exactly_the_d_instances_of_the_solved_operator(monkeypatch, tmp_path):
    cases = [(name, build()) for name, build in PINNED_CASES] + bench_extension_inputs(tmp_path)
    assert len(cases) == len(PINNED_CASES) + 25
    runs = record_instances(monkeypatch)
    solved = 0
    for name, V in cases:
        del runs[:]
        res = extend_to_D(V)
        if res.kind == IMPOSSIBLE:
            continue
        solved += 1
        flavor, recheck = runs
        assert check_relations(res.representative, "D").passed, name
        full = runs[2]
        assert {rel for rel, _ in full} == set(READS), name
        assert recheck == {(rel, k) for rel, k in full if res.missing in READS[rel]}, name
        assert flavor == full - recheck, name
    assert solved >= 20
