"""Tests for structural analysis: dimensions, irreducibility, endomorphisms,
decomposition, and isomorphism."""

import json
import random
from functools import partial

import pytest

from qdweight import analyze

from qdweight.analyze import (
    Decomposition,
    EndBasis,
    NotApplicable,
    Verdict,
    are_isomorphic,
    decompose,
    direct_sum,
    endomorphisms,
    equidimension_check,
    is_indecomposable,
    is_irreducible,
    verify_endomorphism,
    weight_dims,
)
from qdweight.basering import WeightPoint
from qdweight.families import construct_family
from qdweight.fields import FieldSpec, make_field
from qdweight.linalg import Echelon, Mat
from qdweight.orbits import compute_orbit
from qdweight.verify import check_relations
from qdweight.wmod import (
    WeightModule,
    construct_gwa,
    default_labels,
    family1,
    op_names_for,
    restrict,
    simple_no_break,
)
from test_hom_ladder_pinned import RUNGS

QQ = make_field(FieldSpec(kind="RATIONAL", q="2"))
QH = make_field(FieldSpec(kind="RATIONAL", q="1/2"))
F3 = make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))
F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=[1, 0, 1], q="2"))
F4 = make_field(FieldSpec(kind="EXT_FIELD", p=2, f=[1, 1, 1], q="[0,1]"))


def wp(ctx, a, b):
    return WeightPoint(ctx.parse(str(a)), ctx.parse(str(b)))


def fam(name, params, ctx, window=None):
    return construct_family({"name": name, "params": params}, ctx, window=window)


def zero_module(ctx):
    orbit = compute_orbit(wp(ctx, 1, 1), ctx)
    return WeightModule(ctx, orbit, None, {}, {"X": {}, "Y": {}, "Y1": {}})


# shared instances

TWISTED = fam("VQ_F_B_A", {"f": "2", "b": "[0,1]", "a": "[0,1]"}, F9)
CHAIN1 = fam("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": ["1"]}, F4)
CHAIN_A6 = fam("CHAIN_ALT", {"m": 4, "a": ["1", "1", "1", "1"]}, F9)
REMARK = fam("REMARK_136", {}, F3)


def reconstruct_maps(V, witness_maps):
    out = {}
    for entry in witness_maps:
        k = entry["offset"]
        out[k] = Mat.from_json(V.ctx, entry["matrix"], V.dim(k), V.dim(k))
    return out


def span_rank(ctx, rows):
    if not rows:
        return 0
    return Mat(ctx, rows, cols=len(rows[0])).rank()


def check_submodule_witness(V, names, witness):
    """A submodule witness must be nonzero, proper, and op-closed."""
    ctx = V.ctx
    spaces = {e["offset"]: [[ctx.parse(c) for c in row] for row in e["basis"]] for e in witness["spaces"]}
    total = sum(span_rank(ctx, rows) for rows in spaces.values())
    assert witness["dim"] == total
    assert 0 < total < V.total_dim()
    for k, rows in spaces.items():
        for name in names:
            t = V.op_target(name, k)
            if t is None or V.dim(t) == 0:
                continue
            m = V.op(name, k)
            target = spaces.get(t, [])
            for vec in rows:
                img = [sum((m.data[i][j] * vec[j] for j in range(m.cols)), ctx.zero) for i in range(m.rows)]
                if any(img):
                    stacked = target + [img]
                    assert span_rank(ctx, stacked) == span_rank(ctx, target), (name, k)


def check_intertwiner(V, W, names, witness_maps):
    """An intertwiner witness must be invertible and commute with the ops."""
    maps = {}
    for entry in witness_maps:
        k = entry["offset"]
        maps[k] = Mat.from_json(V.ctx, entry["matrix"], W.dim(k), V.dim(k))
    for k in V.offsets():
        if V.dim(k):
            assert maps[k].is_invertible()
    for name in names:
        for k in V.op_sources(name):
            t = V.op_target(name, k)
            if t is None:
                continue
            a = V.op(name, k)
            b = W.op(name, k)
            left = maps[t] * a if t in maps else Mat.zeros(V.ctx, W.dim(t), V.dim(k))
            right = b * maps[k] if k in maps else Mat.zeros(V.ctx, W.dim(t), V.dim(k))
            assert left == right, (name, k)


# verdict plumbing


def test_verdict_constructors():
    assert Verdict.yes().kind == "YES"
    assert Verdict.yes().is_yes
    v = Verdict.no({"kind": "x"})
    assert v.is_no and v.witness == {"kind": "x"}
    assert Verdict.unknown("why").reason == "why"
    assert Verdict.not_applicable("scope").kind == "NOT_APPLICABLE"


def test_verdict_json_shapes():
    assert Verdict.yes().to_json() == {"verdict": "YES"}
    assert Verdict.no({"kind": "x"}).to_json() == {"verdict": "NO", "witness": {"kind": "x"}}
    assert Verdict.unknown("why").to_json() == {"verdict": "UNKNOWN", "reason": "why"}


# weight dimensions


def test_weight_dims_circular():
    assert weight_dims(TWISTED) == [(k, 1) for k in range(6)]
    assert weight_dims(CHAIN_A6) == [(k, 4) for k in range(6)]


def test_weight_dims_skips_zero_spaces():
    assert weight_dims(REMARK) == [(0, 1), (1, 1), (2, 1)]


def test_weight_dims_windowed_ray():
    V = fam("VQ_JJ_4", {"a": "0"}, QQ, window=(-2, 3))
    assert weight_dims(V) == [(1, 1), (2, 1), (3, 1)]


def test_weight_dims_zero_module():
    assert weight_dims(zero_module(F3)) == []


# equidimensionality


def test_equidimension_yes():
    assert equidimension_check(TWISTED).is_yes
    assert equidimension_check(CHAIN_A6).is_yes


def test_equidimension_no_with_witness():
    verdict = equidimension_check(REMARK)
    assert verdict.is_no
    assert verdict.witness == {"kind": "dimension_mismatch", "offsets": [0, 3], "dims": [1, 0]}


def test_equidimension_windowed_not_applicable():
    V = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-3, 3))
    verdict = equidimension_check(V)
    assert verdict.kind == "NOT_APPLICABLE"
    assert "circular" in verdict.reason


def test_equidimension_zero_module():
    assert equidimension_check(zero_module(F3)).is_yes


# irreducibility


def test_irreducible_twisted_circular():
    assert is_irreducible(TWISTED, "D").is_yes


def test_irreducible_chain_m1():
    assert is_irreducible(CHAIN1, "D").is_yes
    V = fam("CHAIN_CYCLE", {"m": 1, "word": "Y1", "a": ["2"]}, F3)
    assert is_irreducible(V, "D").is_yes


def test_irreducible_chain_m2_wide_weight_spaces():
    # exhaustively irreducible even though the weight spaces have dim 2:
    # over a non-closed coefficient field that can genuinely happen
    V = fam("CHAIN_CYCLE", {"m": 2, "word": ["Y", "Y1"], "a": ["1", "2"]}, F3)
    assert is_irreducible(V, "D").is_yes
    assert weight_dims(V) == [(k, 2) for k in range(6)]
    assert endomorphisms(V, "D").dim == 1


def test_gwa_word_module_reducible():
    V = construct_gwa("AQ", family1(0, "x"), wp(F3, 1, 1), None, F3)
    verdict = is_irreducible(V, "AQ")
    assert verdict.is_no
    check_submodule_witness(V, op_names_for("AQ"), verdict.witness)


def test_gwa_empty_word_module_irreducible():
    V = construct_gwa("AQ", family1(0, ""), wp(F3, 1, 1), None, F3)
    assert is_irreducible(V, "AQ").is_yes


def test_direct_sum_reducible_with_witness():
    VV = direct_sum(CHAIN1, CHAIN1)
    verdict = is_irreducible(VV, "D")
    assert verdict.is_no
    check_submodule_witness(VV, op_names_for("D"), verdict.witness)


def test_irreducible_zero_module_is_no():
    verdict = is_irreducible(zero_module(F3), "D")
    assert verdict.is_no
    assert verdict.witness["kind"] == "zero_module"


def test_irreducible_windowed_not_applicable():
    V = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-3, 3))
    assert is_irreducible(V, "D").kind == "NOT_APPLICABLE"


def test_irreducible_budget_exhausted_unknown():
    verdict = is_irreducible(CHAIN_A6, "D", budget=10)
    assert verdict.kind == "UNKNOWN"
    assert "budget" in verdict.reason


def test_irreducible_budget_checked_before_enumerating(monkeypatch):
    # the line count is closed-form, so an over-budget input never builds a line
    import qdweight.analyze as analyze

    def refuse(ctx, dim):
        raise AssertionError("lines enumerated past the budget")

    monkeypatch.setattr(analyze, "_unit_lines", refuse)
    verdict = is_irreducible(CHAIN_A6, "D", budget=10)
    assert verdict.kind == "UNKNOWN"
    assert verdict.reason == "irreducibility needs 4920 line checks, over the budget of 10"
    A6 = fam("CHAIN_ALT", {"m": 6, "a": ["1"] * 6}, F9)
    verdict = is_irreducible(A6, "D")
    assert verdict.kind == "UNKNOWN"
    assert verdict.reason == "irreducibility needs 398580 line checks, over the budget of 20000"


def test_irreducible_missing_op_rejected():
    V = restrict(TWISTED, "AQ")
    with pytest.raises(ValueError, match="no operator"):
        is_irreducible(V, "D")


# endomorphisms


def test_endomorphisms_of_irreducible_is_identity_line():
    end = endomorphisms(TWISTED, "D")
    assert end.dim == 1
    only = end.maps[0]
    for k in TWISTED.offsets():
        assert only[k] == Mat.identity(F9, 1)


def test_endomorphisms_double_module_dim_four():
    VV = direct_sum(CHAIN1, CHAIN1)
    end = endomorphisms(VV, "D")
    assert end.dim == 4
    for maps in end.maps:
        assert verify_endomorphism(VV, op_names_for("D"), maps)


def test_endomorphisms_all_basis_elements_commute():
    for V, alg in ((TWISTED, "D"), (CHAIN_A6, "AQ"), (CHAIN_A6, "A1"), (CHAIN_A6, "D")):
        end = endomorphisms(V, alg)
        assert end.dim >= 1
        for maps in end.maps:
            assert verify_endomorphism(V, op_names_for(alg), maps)


def test_endomorphisms_windowed_raises():
    V = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-3, 3))
    with pytest.raises(NotApplicable):
        endomorphisms(V, "D")


def test_endomorphisms_zero_module_empty():
    assert endomorphisms(zero_module(F3), "D").dim == 0


def test_end_basis_json():
    end = endomorphisms(TWISTED, "D")
    raw = end.to_json()
    assert raw["algebra"] == "D"
    assert raw["dim"] == 1
    assert raw["basis"][0][0] == {"offset": 0, "matrix": [["[1]"]]}


# indecomposability


def test_indecomposable_yes_for_irreducible():
    assert is_indecomposable(TWISTED, "D").is_yes
    assert is_indecomposable(CHAIN1, "AQ").is_yes
    assert is_indecomposable(CHAIN1, "A1").is_yes


def test_indecomposable_no_with_idempotent_witness():
    VV = direct_sum(CHAIN1, CHAIN1)
    verdict = is_indecomposable(VV, "D")
    assert verdict.is_no
    assert verdict.witness["kind"] == "idempotent"
    assert 0 < verdict.witness["rank"] < VV.total_dim()
    maps = reconstruct_maps(VV, verdict.witness["maps"])
    assert verify_endomorphism(VV, op_names_for("D"), maps)
    for k, m in maps.items():
        assert m * m == m
    assert any(not m.is_zero() for m in maps.values())
    assert any(not (Mat.identity(VV.ctx, VV.dim(k)) - m).is_zero() for k, m in maps.items())


def test_indecomposable_windowed_not_applicable():
    V = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-3, 3))
    assert is_indecomposable(V, "D").kind == "NOT_APPLICABLE"


def test_indecomposable_zero_module_no():
    assert is_indecomposable(zero_module(F3), "D").is_no


# decomposition


def test_decompose_irreducible_single_summand():
    for alg in ("D", "AQ", "A1"):
        dec = decompose(TWISTED, alg)
        assert dec.count == 1 and dec.complete
        dec = decompose(CHAIN1, alg)
        assert dec.count == 1 and dec.complete


def test_decompose_double_module():
    VV = direct_sum(CHAIN1, CHAIN1)
    dec = decompose(VV, "D")
    assert dec.count == 2 and dec.complete
    for s in dec.summands:
        assert s.total_dim() == CHAIN1.total_dim()
        assert check_relations(s, "D").passed
        assert are_isomorphic(s, CHAIN1, "D").is_yes


def test_decompose_chain_alt_by_algebra():
    expectations = {"D": 2, "AQ": 4, "A1": 4}
    for alg, count in expectations.items():
        dec = decompose(CHAIN_A6, alg, seed=42)
        assert dec.count == count, alg
        assert dec.complete
        assert sum(s.total_dim() for s in dec.summands) == 24
        for s in dec.summands:
            assert check_relations(s, alg).passed
            assert is_indecomposable(s, alg, seed=42).is_yes


def test_decompose_summands_drop_foreign_ops():
    dec = decompose(CHAIN_A6, "AQ", seed=42)
    for s in dec.summands:
        assert sorted(s.ops) == ["X", "Y1"]


def test_decompose_windowed_raises():
    V = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-3, 3))
    with pytest.raises(NotApplicable):
        decompose(V, "D")


def test_decompose_zero_module():
    dec = decompose(zero_module(F3), "D")
    assert dec.count == 0 and dec.complete


def test_decompose_deterministic():
    one = decompose(CHAIN_A6, "AQ", seed=7).to_json()
    two = decompose(CHAIN_A6, "AQ", seed=7).to_json()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_decomposition_json_shape():
    raw = decompose(CHAIN1, "D").to_json()
    assert raw["count"] == 1
    assert raw["complete"] is True
    assert raw["summands"][0]["kind"] == "CIRCULAR"


# isomorphism


def test_isomorphic_twisted_pair():
    W = fam("V1_F_A_B", {"f": "2", "a": "[0,1]", "b": "[0,1]"}, F9)
    verdict = are_isomorphic(TWISTED, W, "D")
    assert verdict.is_yes
    assert verdict.witness["kind"] == "intertwiner"
    check_intertwiner(TWISTED, W, op_names_for("D"), verdict.witness["maps"])


def test_isomorphic_windowed_line_pair():
    V = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-5, 5))
    W = fam("V1_A_B", {"a": "1/2", "b": "3"}, QQ, window=(-5, 5))
    verdict = are_isomorphic(V, W, "D")
    assert verdict.is_yes
    check_intertwiner(V, W, op_names_for("D"), verdict.witness["maps"])


def test_isomorphic_restriction_matches_gwa():
    V = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-4, 4))
    G = construct_gwa("AQ", simple_no_break(), wp(QQ, "1/2", 3), (-4, 4), QQ)
    verdict = are_isomorphic(restrict(V, "AQ"), G, "AQ")
    assert verdict.is_yes
    W = fam("V1_A_B", {"a": "1/2", "b": "3"}, QQ, window=(-4, 4))
    H = construct_gwa("A1", simple_no_break(), wp(QQ, "1/2", 3), (-4, 4), QQ)
    assert are_isomorphic(restrict(W, "A1"), H, "A1").is_yes


def test_isomorphic_to_itself():
    verdict = are_isomorphic(CHAIN_A6, CHAIN_A6, "D")
    assert verdict.is_yes
    check_intertwiner(CHAIN_A6, CHAIN_A6, op_names_for("D"), verdict.witness["maps"])


def test_not_isomorphic_support_mismatch():
    one = fam("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": ["1"]}, F3)
    two = fam("CHAIN_CYCLE", {"m": 2, "word": "YY1", "a": ["1", "1"]}, F3)
    verdict = are_isomorphic(one, two, "D")
    assert verdict.is_no
    assert verdict.witness == {"kind": "support_mismatch", "offset": 0, "dims": [1, 2]}


def test_not_isomorphic_different_wrap_factor():
    other = fam("VQ_F_B_A", {"f": "[0,1]", "b": "[0,1]", "a": "[0,1]"}, F9)
    verdict = are_isomorphic(TWISTED, other, "D")
    assert verdict.is_no
    assert verdict.witness == {"kind": "no_invertible_intertwiner", "hom_dim": 0, "exhaustive": True}


def test_not_isomorphic_exhaustive_over_a_two_dimensional_hom():
    # Hom(S1+S1, S1+S2) is End(S1) twice over, since S1 and S2 are the two
    # non-isomorphic summands of A6; no line in it is invertible
    S1, S2 = decompose(CHAIN_A6, "D", seed=0).summands
    verdict = are_isomorphic(direct_sum(S1, S1), direct_sum(S1, S2), "D")
    assert verdict.is_no
    assert verdict.witness == {"kind": "no_invertible_intertwiner", "hom_dim": 2, "exhaustive": True}


def five_twisted():
    V = TWISTED
    for _ in range(4):
        V = direct_sum(V, TWISTED)
    return V


def test_sweep_over_a_large_space_is_seeded_and_bounded():
    # 5 basis vectors and 20 pairwise sums and differences, then 4 seeded draws
    sweep, exhaustive = analyze._coefficient_sweep(F9, 5, 7, 4)
    vectors = list(sweep)
    assert not exhaustive
    assert len(vectors) == 29
    rng = random.Random(7)
    assert vectors[25:] == [[F9.random_element(rng) for _ in range(5)] for _ in range(4)]


def test_trial_budget_unknowns(monkeypatch):
    V = five_twisted()
    assert endomorphisms(V, "D").dim == 25
    monkeypatch.setattr(analyze, "_fitting_projector", lambda runs, phi: None)
    reason = "no splitting endomorphism found within the trial budget"
    verdict = is_indecomposable(V, "D", trials=3)
    assert verdict.kind == "UNKNOWN" and verdict.reason == reason
    dec = decompose(V, "D", trials=3)
    assert not dec.complete and dec.reason == reason and dec.summands == [V]

    monkeypatch.setattr(analyze, "_invertible", lambda phi: False)
    verdict = are_isomorphic(V, V, "D", trials=3)
    assert verdict.kind == "UNKNOWN"
    assert verdict.reason == "no invertible intertwiner found within the trial budget"


def test_isomorphic_zero_modules():
    verdict = are_isomorphic(zero_module(F3), zero_module(F3), "D")
    assert verdict.is_yes
    assert verdict.witness["maps"] == []


def test_isomorphic_precondition_errors():
    V = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-3, 3))
    W = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QQ, window=(-4, 4))
    with pytest.raises(ValueError, match="window"):
        are_isomorphic(V, W, "D")
    other_base = fam("VQ_B_A", {"b": "5", "a": "1/2"}, QQ, window=(-3, 3))
    with pytest.raises(ValueError, match="orbit"):
        are_isomorphic(V, other_base, "D")
    other_field = fam("VQ_B_A", {"b": "3", "a": "1/2"}, QH, window=(-3, 3))
    with pytest.raises(ValueError, match="field"):
        are_isomorphic(V, other_field, "D")
    with pytest.raises(ValueError, match="no operator"):
        are_isomorphic(restrict(V, "AQ"), restrict(W, "AQ"), "D")


def test_isomorphism_deterministic():
    W = fam("V1_F_A_B", {"f": "2", "a": "[0,1]", "b": "[0,1]"}, F9)
    one = are_isomorphic(TWISTED, W, "D", seed=3).to_json()
    two = are_isomorphic(TWISTED, W, "D", seed=3).to_json()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


# direct sums


def test_direct_sum_shapes_and_relations():
    VV = direct_sum(CHAIN1, CHAIN1)
    assert VV.total_dim() == 2 * CHAIN1.total_dim()
    assert weight_dims(VV) == [(k, 2) for k in range(6)]
    assert check_relations(VV, "D").passed
    assert VV.label_list(0) == ("v0", "v0'")


def test_direct_sum_precondition_errors():
    chain9 = fam("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": ["1"]}, F9)
    with pytest.raises(ValueError, match="orbit"):
        direct_sum(TWISTED, chain9)
    chain3 = fam("CHAIN_CYCLE", {"m": 1, "word": "Y", "a": ["1"]}, F3)
    with pytest.raises(ValueError, match="field"):
        direct_sum(CHAIN1, chain3)


def test_direct_sum_mixed_ops_rejected():
    with pytest.raises(ValueError, match="operator sets"):
        direct_sum(CHAIN1, restrict(CHAIN1, "AQ"))


# graded closure really is the ungraded closure


def big_index(V):
    idx = {}
    for k in V.offsets():
        for i in range(V.dim(k)):
            idx[(k, i)] = len(idx)
    return idx


def big_op(V, name, idx):
    n = len(idx)
    m = Mat.zeros(V.ctx, n, n)
    for k in V.op_sources(name):
        t = V.op_target(name, k)
        if t is None:
            continue
        block = V.op(name, k)
        for i in range(block.rows):
            for j in range(block.cols):
                m.data[idx[(t, i)]][idx[(k, j)]] = block.data[i][j]
    return m


def test_ungraded_closure_matches_graded_componentwise():
    # closing a mixed vector under the operators and then splitting into
    # weight components gives exactly the sum of the per-component closures
    V = CHAIN_A6
    names = op_names_for("D")
    idx = big_index(V)
    ops = [big_op(V, name, idx) for name in names]
    ctx = V.ctx

    seeds = {0: [1, 0, 2, 0], 3: [0, 1, 0, 1]}
    mixed = [ctx.zero] * len(idx)
    for k, coords in seeds.items():
        for i, c in enumerate(coords):
            mixed[idx[(k, i)]] = ctx.from_int(c)

    spanned = [mixed]
    frontier = [mixed]
    while frontier:
        vec = frontier.pop()
        col = Mat.column(ctx, vec)
        for op in ops:
            img = [r[0] for r in (op * col).data]
            stacked = spanned + [img]
            if Mat(ctx, stacked, cols=len(idx)).rank() > Mat(ctx, spanned, cols=len(idx)).rank():
                spanned.append(img)
                frontier.append(img)

    # split the ungraded closure into weight components per offset
    ungraded = {}
    for k in V.offsets():
        rows = [[vec[idx[(k, i)]] for i in range(V.dim(k))] for vec in spanned]
        ungraded[k] = span_rank(ctx, rows)

    vectors = [(k, [ctx.from_int(c) for c in coords]) for k, coords in seeds.items()]
    graded = analyze._spin(ctx, analyze._arrows(V, names), vectors)
    for k in V.offsets():
        assert ungraded[k] == graded[k].rank


# the graded Hom solve on runs of invertible X links, against the dense
# solve in sum d_k^2 unknowns that it replaced


def dense_hom_basis(V, W, names):
    ctx = V.ctx
    offsets = V.offsets()
    index = {}
    for k in offsets:
        for i in range(W.dim(k)):
            for j in range(V.dim(k)):
                index[(k, i, j)] = len(index)
    n = len(index)
    if n == 0:
        return []

    rows = []
    for name in names:
        for k in V.op_sources(name):
            t = V.op_target(name, k)
            A = V.op(name, k)
            B = W.op(name, k)
            # phi_t A = B phi_k, entry by entry
            for i in range(W.dim(t)):
                for j in range(V.dim(k)):
                    row = [ctx.zero] * n
                    for l in range(V.dim(t)):
                        row[index[(t, i, l)]] += A.data[l][j]
                    for l in range(W.dim(k)):
                        row[index[(k, l, j)]] -= B.data[i][l]
                    if any(row):
                        rows.append(row)

    basis = []
    for sol in Mat(ctx, rows, cols=n).nullspace():
        maps = {}
        for k in offsets:
            dw, dv = W.dim(k), V.dim(k)
            if dw and dv:
                maps[k] = Mat(ctx, [[sol.data[index[(k, i, j)]][0] for j in range(dv)] for i in range(dw)])
        basis.append(maps)
    return basis


F5Q4 = make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="4"))


def random_block(rng, ctx, rows, cols, kind):
    """A random matrix: zero, identity, scalar, invertible, singular (rank <= 1) or any."""
    square = rows == cols
    if kind == "identity" and square:
        return Mat.identity(ctx, rows)
    if kind == "scalar" and square:
        return Mat.identity(ctx, rows).scale(ctx.random_element(rng))
    if kind == "invertible" and square:
        while True:
            m = Mat(ctx, [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)
            if m.is_invertible():
                return m
    if kind == "singular" and min(rows, cols) > 1:
        col = Mat.column(ctx, [ctx.random_element(rng) for _ in range(rows)])
        return col * Mat(ctx, [[ctx.random_element(rng) for _ in range(cols)]])
    if kind == "any":
        return Mat(ctx, [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)
    return Mat.zeros(ctx, rows, cols)


X_KINDS = {
    "mixed": ("identity", "invertible", "singular", "zero", "any"),
    "invertible": ("identity", "invertible"),
    "singular": ("singular", "zero"),
}
T_KINDS = ("zero", "scalar", "identity", "any")


def random_module(rng, ctx, orbit, window, dims, x_mode):
    """A module of random blocks; relations are not imposed, so most of these break them."""
    labels = {k: tuple(f"e{i}" for i in range(d)) for k, d in dims.items() if d}
    shell = WeightModule(ctx, orbit, window, labels, {})
    ops = {}
    for name in ("X", "Y", "Y1"):
        kinds = X_KINDS[x_mode] if name == "X" else T_KINDS
        ops[name] = {
            k: random_block(rng, ctx, shell.dim(shell.op_target(name, k)), shell.dim(k), rng.choice(kinds))
            for k in shell.op_sources(name)
        }
    return shell.with_ops(ops)


def gauge(rng, V):
    """V moved by a random invertible block per offset: a module isomorphic to V."""
    g = {k: random_block(rng, V.ctx, V.dim(k), V.dim(k), "invertible") for k in V.offsets()}
    ops = {
        name: {k: g[V.op_target(name, k)] * V.op(name, k) * g[k].inverse() for k in V.op_sources(name)}
        for name in V.ops
    }
    return V.with_ops(ops)


def random_pair(rng):
    ctx, base, window = rng.choice(
        [
            (F3, (1, 1), None),
            (F4, (1, 1), None),
            (F5Q4, (2, 1), None),
            (QQ, ("1/2", 3), (0, rng.randint(1, 3))),
        ]
    )
    orbit = compute_orbit(wp(ctx, *base), ctx)
    shell = WeightModule(ctx, orbit, window, {}, {})
    d = rng.choice([1, 1, 2, 2, 3])
    vary = rng.choice([0, 0.3])
    dims = {k: (0 if rng.random() < 0.1 else rng.randint(1, 3)) if rng.random() < vary else d for k in shell.offsets()}
    x_mode = rng.choice(list(X_KINDS))
    V = random_module(rng, ctx, orbit, window, dims, x_mode)
    how = rng.choice(["self", "gauge", "gauge", "random", "sum"])
    if how == "self":
        W = V
    elif how == "gauge":
        W = gauge(rng, V)
    elif how == "random":
        W = random_module(rng, ctx, orbit, window, dims, x_mode)
    else:
        other = {k: rng.randint(0, 1) for k in shell.offsets()}
        W = direct_sum(V, random_module(rng, ctx, orbit, window, other, x_mode))
    return V, W, rng.choice(["D", "AQ", "A1"]), x_mode


def cut_at_last_link(V, W):
    """A circular pair whose last link is square and invertible in V and in
    W while some other link is not: a run could reach across the last link."""

    def invertible(k):
        t = V.op_target("X", k)
        return all(M.dim(k) == M.dim(t) > 0 and M.op("X", k).is_invertible() for M in (V, W))

    r = V.orbit.length
    return V.circular and invertible(r - 1) and not all(invertible(k) for k in range(r - 1))


def test_run_solver_matches_dense_hom_basis():
    rng = random.Random(20261018)
    seen = {"hom": 0, "big hom": 0, "circular": 0, "windowed": 0, "zero space": 0, "V != W": 0, "cut cycle": 0}
    seen.update({mode: 0 for mode in X_KINDS})
    seen["identity in V, transport in W"] = 0
    seen["cut at the last link"] = 0
    for _ in range(200):
        V, W, algebra, x_mode = random_pair(rng)
        names = op_names_for(algebra)
        runs = analyze.Runs(V, W)
        want = dense_hom_basis(V, W, names)
        tops, solved_on = analyze._graded_hom_basis(V, W, names)
        got = [solved_on.lift(blocks) for blocks in tops]
        assert [{k: m.to_json() for k, m in maps.items()} for maps in got] == [
            {k: m.to_json() for k, m in maps.items()} for maps in want
        ]
        seen["hom"] += bool(want)
        seen["big hom"] += len(want) > 2
        seen["circular" if V.circular else "windowed"] += 1
        seen["zero space"] += any(V.dim(k) == 0 or W.dim(k) == 0 for k in V.offsets())
        seen["V != W"] += W is not V
        seen[x_mode] += 1
        # every link invertible: one run, cut at its last link
        seen["cut cycle"] += V.circular and len(runs.links) == V.orbit.length - 1
        # an offset reached across X = 1 links in V but not in W: lift must
        # apply W's transport alone
        seen["identity in V, transport in W"] += any(k not in runs.v and k in runs.w for k in runs.rep)
        seen["cut at the last link"] += cut_at_last_link(V, W)
    assert min(seen.values()) >= 10, seen


def test_hom_solve_builds_one_echelon(monkeypatch):
    # the system's kernel vectors, lifted, are the canonical basis: no
    # second elimination brings them to it
    built = []
    monkeypatch.setattr(analyze, "Echelon", lambda: built.append(1) or Echelon())
    W = direct_sum(TWISTED, TWISTED)
    for V, U in ((TWISTED, TWISTED), (TWISTED, W), (W, W), (CHAIN_A6, CHAIN_A6)):
        built.clear()
        basis, _ = analyze._graded_hom_basis(V, U, op_names_for("D"))
        assert basis and len(built) == 1


def per_offset_iso(V, W, algebra, seed=0, trials=analyze.DEFAULT_TRIALS):
    """The isomorphism search offset by offset: the oracle for the run sweep.

    Combines every offset's block of the dense Hom basis and asks each one to
    be invertible.
    """
    for k in V.offsets():
        if V.dim(k) != W.dim(k):
            return Verdict.no({"kind": "support_mismatch", "offset": k, "dims": [V.dim(k), W.dim(k)]})
    if V.total_dim() == 0:
        return Verdict.yes({"kind": "intertwiner", "maps": []})
    homs = dense_hom_basis(V, W, op_names_for(algebra))
    if not homs:
        return Verdict.no({"kind": "no_invertible_intertwiner", "hom_dim": 0, "exhaustive": True})
    sweep, exhaustive = analyze._coefficient_sweep(V.ctx, len(homs), seed, trials)
    for coefs in sweep:
        phi = {}
        for maps, c in zip(homs, coefs):
            if c:
                for k, m in maps.items():
                    phi[k] = phi[k] + m.scale(c) if k in phi else m.scale(c)
        if all(k in phi and phi[k].is_invertible() for k in V.offsets() if V.dim(k)):
            maps = [{"offset": k, "matrix": phi[k].to_json()} for k in sorted(phi)]
            return Verdict.yes({"kind": "intertwiner", "maps": maps})
    if exhaustive:
        return Verdict.no({"kind": "no_invertible_intertwiner", "hom_dim": len(homs), "exhaustive": True})
    return Verdict.unknown("no invertible intertwiner found within the trial budget")


def test_iso_on_run_representatives_matches_per_offset_search():
    rng = random.Random(20261019)
    seen = {"self": 0, "iso, V != W": 0, "no invertible": 0, "support mismatch": 0, "windowed": 0, "cut cycle": 0}
    seen.update({mode: 0 for mode in X_KINDS})
    for _ in range(200):
        V, W, algebra, x_mode = random_pair(rng)
        want = per_offset_iso(V, W, algebra)
        got = are_isomorphic(V, W, algebra)
        assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)
        kind = (got.witness or {}).get("kind")
        seen["self"] += W is V
        seen["iso, V != W"] += got.is_yes and W is not V
        seen["no invertible"] += kind == "no_invertible_intertwiner"
        seen["support mismatch"] += kind == "support_mismatch"
        seen["windowed"] += not V.circular
        seen[x_mode] += 1
        seen["cut cycle"] += V.circular and len(analyze.Runs(V, W).links) == V.orbit.length - 1
    assert min(seen.values()) >= 10, seen


def test_end_keyword_serves_a_solved_end(monkeypatch):
    V = direct_sum(TWISTED, TWISTED)
    want = [is_indecomposable(V, "D").to_json(), decompose(V, "D").to_json()]
    end = endomorphisms(V, "D")
    ends, solves = analyze.endomorphisms, []
    monkeypatch.setattr(analyze, "endomorphisms", lambda *args: solves.append(args) or ends(*args))
    assert is_indecomposable(V, "D", end=end).to_json() == want[0]
    assert solves == []
    assert decompose(V, "D", end=end).to_json() == want[1]
    # the two summands' End is restricted from end, not solved
    assert solves == []


def test_runs_built_once_per_end_solve(monkeypatch):
    built, solves = [], []
    runs, ends = analyze.Runs, analyze.endomorphisms

    def counting_runs(*args):
        built.append(args)
        return runs(*args)

    def counting_ends(*args):
        solves.append(args)
        return ends(*args)

    monkeypatch.setattr(analyze, "Runs", counting_runs)
    monkeypatch.setattr(analyze, "endomorphisms", counting_ends)
    V = direct_sum(TWISTED, TWISTED)
    assert is_indecomposable(V, "D").is_no
    assert len(solves) == 1 and len(built) == 1
    assert decompose(V, "D").count == 2
    # one End solved for V, and one restricted to each summand at V's run
    # tops: Runs is built once per End solve, none for a restricted End
    assert len(solves) == 2 and len(built) == 2


def test_invertible_candidates_take_no_fitting_power(monkeypatch):
    power, powered = analyze.fitting_power, []
    monkeypatch.setattr(analyze, "fitting_power", lambda m: powered.append(m) or power(m))
    V = fam("CHAIN_ALT", {"m": 6, "a": ["1"] * 6}, F9)
    assert is_indecomposable(V, "D").is_yes
    # the exhaustive sweep tries 100 candidates; the 87 invertible ones are
    # dropped before a power is taken, and the 13 others are powered on
    # End's 3 x 3 regular representation, not on the module's 6 x 6 blocks
    assert len(powered) == 13
    assert not any(m.is_invertible() for m in powered)
    assert all(m.rows == 3 for m in powered)


def test_no_identity_is_inverted_or_multiplied(monkeypatch):
    # X = 1 off the junction: no transport is formed across those links,
    # and no summand multiplies by an operator that is c 1 or a square factor
    inverse, mul = Mat.inverse, Mat.__mul__
    inverses, products = [], []

    def is_one(m):
        return m.scalar_value() == m.ctx.one

    monkeypatch.setattr(Mat, "inverse", lambda m: inverses.append(is_one(m)) or inverse(m))
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append(is_one(a) or is_one(b)) or mul(a, b))
    V = fam("CHAIN_ALT", {"m": 4, "a": ["1"] * 4}, F9)
    assert endomorphisms(V, "D").dim == 2
    assert [s.total_dim() for s in decompose(V, "D").summands] == [12, 12]
    assert inverses and products
    assert not any(inverses) and not any(products)


def count_solves(monkeypatch):
    """A list that gets the shape of each Mat.solve call's matrix from now on."""
    solve, solves = Mat.solve, []
    monkeypatch.setattr(Mat, "solve", lambda m, rhs: solves.append((m.rows, m.cols)) or solve(m, rhs))
    return solves


def ladder_rung(p, q, m):
    ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=p, q=q))
    return construct_family({"name": "CHAIN_ALT", "params": {"m": m, "a": ["1"] * m}}, ctx)


def test_ladder_decompose_solves_end_once(monkeypatch):
    solve, solves = analyze._graded_hom_basis, []
    monkeypatch.setattr(analyze, "_graded_hom_basis", lambda *args: solves.append(args) or solve(*args))
    mat_solves = count_solves(monkeypatch)
    dec = decompose(ladder_rung(7, "3", 16), "D")
    assert [U.total_dim() for U in dec.summands] == [168, 168, 168, 84, 84]
    # every summand's End is restricted from the one solved (nine solves before)
    assert len(solves) == 1
    # and its operators are cut by its projector's rank factors: the only
    # Mat solves left are the Fitting projectors' [image | kernel] inverses
    # (20 before)
    assert len(mat_solves) == 4


@pytest.mark.parametrize("rung", [rung for rung in RUNGS if rung[-1]], ids=lambda rung: rung[0])
def test_ladder_split_makes_no_solve(monkeypatch, rung):
    _, p, q, m, _ = rung
    V = ladder_rung(p, q, m)
    end = endomorphisms(V, "D")
    found = found_projectors(V, end, count=1)
    assert found
    solves = count_solves(monkeypatch)
    parts = split_along(V, op_names_for("D"), end, found[0])
    assert solves == [] and all(U.total_dim() for U in parts)


def test_maps_json_writes_each_block_object_once(monkeypatch):
    end = endomorphisms(CHAIN_A6, "D")
    want = [[{"offset": k, "matrix": maps[k].to_json()} for k in sorted(maps)] for maps in end.maps]
    to_json, written = Mat.to_json, []
    monkeypatch.setattr(Mat, "to_json", lambda m, memo=None: written.append(m) or to_json(m, memo))
    assert end.to_json()["basis"] == want
    # X = 1 off the junction: each map hands one block to all six offsets
    assert len(written) == sum(len({id(m) for m in maps.values()}) for maps in end.maps) == 2


def test_decompose_lifts_projectors_only(monkeypatch):
    # End bases are read at the run tops; only each final summand's
    # projector is lifted, to cut it, and End is lifted when it is written out
    V = five_twisted()
    end = endomorphisms(V, "D")
    lift, lifted = analyze.Runs.lift, []
    monkeypatch.setattr(analyze.Runs, "lift", lambda runs, phi: lifted.append(phi) or lift(runs, phi))
    assert decompose(V, "D", end=end).count == 5
    assert len(lifted) == 5
    assert end.to_json()["dim"] == 25 and len(lifted) == 5 + 25


# the split test on End's regular representation, against the Fitting
# projector on the module's blocks that it screens for


def sweep_both_ways(V, algebra, trials=analyze.DEFAULT_TRIALS):
    """For each candidate of the split sweep, whether the regular
    representation splits and whether _fitting_projector does; the first
    hit with the screen, without it, and as _find_split gives it; and
    whether the sweep is exhaustive."""
    end = endomorphisms(V, algebra)
    table = analyze._regular(V.ctx, end.tops)
    verdicts, coefs = [], []

    def regular(c):
        return analyze._splits(table, c)

    def fitting(phi):
        return analyze._fitting_projector(end.runs, phi)

    def record(c):
        coefs[:] = c
        return True

    def both(phi):
        # a block at every top of a nonzero weight space, in offset order
        assert list(phi) == [e for e in end.runs.members if V.dim(e)]
        verdicts.append((regular(coefs), fitting(phi) is not None))

    def sweep(test, screen=None):
        return analyze._search(V.ctx, end.tops, 0, trials, test, screen)

    _, exhaustive = sweep(both, record)
    first = [sweep(fitting, regular)[0], sweep(fitting)[0], analyze._find_split(V.ctx, end.runs, end.tops, 0, trials)[0]]
    hits = [None if f is None else ({k: m.to_json() for k, m in f[0].items()}, f[1]) for f in first]
    return verdicts, hits, exhaustive


@pytest.mark.parametrize(
    "V, algebra, trials, exhaustive, splits",
    [
        (CHAIN_A6, "D", analyze.DEFAULT_TRIALS, True, True),
        (CHAIN_A6, "AQ", 50, False, True),
        (CHAIN_A6, "A1", 50, False, True),
        (fam("CHAIN_ALT", {"m": 6, "a": ["1"] * 6}, F9), "D", analyze.DEFAULT_TRIALS, True, False),
        (direct_sum(TWISTED, TWISTED), "D", analyze.DEFAULT_TRIALS, True, True),
        (five_twisted(), "D", 20, False, True),
    ],
    ids=["alt4-D", "alt4-AQ", "alt4-A1", "alt6-D", "twisted2-D", "twisted5-D"],
)
def test_regular_split_test_matches_fitting_projector(V, algebra, trials, exhaustive, splits):
    verdicts, (screened, unscreened, found), swept_all = sweep_both_ways(V, algebra, trials)
    assert swept_all == exhaustive
    assert [got for got, _ in verdicts] == [want for _, want in verdicts]
    assert screened == unscreened == found and (screened is not None) == splits
    # some candidate splits exactly where the module does, and not every one
    assert any(got for got, _ in verdicts) == splits
    assert not all(got for got, _ in verdicts)


# the split on runs, against the split of every weight space that it replaced


def per_offset_projector(V, runs, blocks):
    """A_k^-1 p_e A_k at every offset of a run, A_k = X_{e-1} ... X_k formed
    in full down from the run's top e."""
    out = {}
    for e, members in runs.members.items():
        if e not in blocks:
            continue
        p = out[e] = blocks[e]
        a = None
        for k in reversed(members[:-1]):
            a = V.op("X", k) if a is None else a * V.op("X", k)
            out[k] = a.inverse() * p * a
    return out


def per_offset_subspace_module(V, names, bases, solves):
    """The restriction with one solve per operator instance."""
    labels = {k: default_labels(k, b.cols) for k, b in bases.items()}
    ops = {}
    for name in names:
        table = {}
        for k in V.op_sources(name):
            t = V.op_target(name, k)
            if k in bases and t in bases and bases[k].cols and bases[t].cols:
                solves.append((bases[t] == bases[k], V.op(name, k).scalar_value()))
                table[k] = bases[t].solve(V.op(name, k) * bases[k])
                assert table[k] is not None
        ops[name] = table
    return WeightModule(V.ctx, V.orbit, V.window, labels, ops)


def per_offset_split(V, names, proj, solves):
    """The split with a column space of every weight space's projector block."""
    ctx = V.ctx
    image, complement = {}, {}
    for k in V.offsets():
        d = V.dim(k)
        if d:
            e = proj.get(k, Mat.zeros(ctx, d, d))
            image[k] = e.column_space()
            complement[k] = (Mat.identity(ctx, d) - e).column_space()
    return tuple(per_offset_subspace_module(V, names, bases, solves) for bases in (image, complement))


def random_split_pair(rng):
    """A circular decomposable module V and a gauge copy W of it."""
    ctx, base = rng.choice([(F3, (1, 1)), (F4, (1, 1)), (F5Q4, (2, 1))])
    orbit = compute_orbit(wp(ctx, *base), ctx)
    offsets = range(orbit.length)
    x_mode = rng.choice(list(X_KINDS))
    d = rng.choice([1, 1, 2])
    vary = rng.choice([0, 0.3])
    dims = {k: rng.randint(0, 2) if rng.random() < vary else d for k in offsets}
    A = random_module(rng, ctx, orbit, None, dims, x_mode)
    how = rng.choice(["twice", "gauge", "other"])
    if how == "twice":
        B = A
    elif how == "gauge":
        B = gauge(rng, A)
    else:
        B = random_module(rng, ctx, orbit, None, {k: rng.randint(0, 1) for k in offsets}, x_mode)
    V = direct_sum(A, B)
    return V, gauge(rng, V), rng.choice(["D", "AQ", "A1"]), x_mode


def module_bytes(V):
    return json.dumps(V.to_json(), sort_keys=True)


def split_along(M, names, end, proj):
    """The image and complement summands of M along a projector given at
    the run tops, cut as decompose cuts its final summands."""
    return [analyze._summand(M, names, end.runs, factors, {}) for factors, _ in analyze._parts(None, end.tops, proj, {})]


def found_projectors(M, end, count=2):
    """The first count projectors the split sweep finds in End(M), at the run representatives."""
    found = []

    def collect(phi):
        got = analyze._fitting_projector(end.runs, phi)
        if got is not None:
            found.append(got[0])
        return len(found) >= count or None

    if end.dim > 1:
        analyze._search(M.ctx, end.tops, 0, 20, collect)
    return found


def test_split_on_runs_matches_per_offset_split(monkeypatch):
    rng = random.Random(20261021)
    seen = {"split": 0, "identity in V, transport in W": 0, "spaces reused": 0, "transported": 0, "c 1 restriction": 0}
    seen.update({mode: 0 for mode in X_KINDS})
    # cuts of an operator that is not c 1 between two factor pairs: the product path
    seen["product cut"] = 0
    cut = analyze._cut

    def counted(target, m, source, ones):
        seen["product cut"] += target is not source and m.scalar_value() is None
        return cut(target, m, source, ones)

    monkeypatch.setattr(analyze, "_cut", counted)
    solves = count_solves(monkeypatch)
    for _ in range(40):
        V, W, algebra, x_mode = random_split_pair(rng)
        names = op_names_for(algebra)
        runs = []
        for M in (V, W):
            end = endomorphisms(M, algebra)
            found = found_projectors(M, end)
            for proj in found:
                lifted = per_offset_projector(M, end.runs, proj)
                assert {k: m.to_json() for k, m in end.runs.lift(proj).items()} == {
                    k: m.to_json() for k, m in lifted.items()
                }
                instances = []
                want = per_offset_split(M, names, lifted, instances)
                before = len(solves)
                got = split_along(M, names, end, proj)
                assert len(solves) == before
                assert tuple(map(module_bytes, got)) == tuple(map(module_bytes, want))
                seen["split"] += 1
                seen[x_mode] += 1
                reps = end.runs.rep
                seen["spaces reused"] += any(k != reps[k] and k not in end.runs.v for k in reps if M.dim(k))
                seen["transported"] += any(M.dim(k) for k in end.runs.v)
                seen["c 1 restriction"] += any(same and c is not None for same, c in instances)
            runs.append(end.runs if found else None)
        # W is a gauge copy of V: an X = 1 link of V is a transport in W
        if runs[0] and runs[1]:
            seen["identity in V, transport in W"] += any(k not in runs[0].v and k in runs[1].v for k in runs[0].rep)
    assert min(seen.values()) >= 10, seen


def per_offset_decompose(M, algebra):
    """The recursive decompose that the split tree at the run tops replaced:
    End solved on every summand, each split's projector lifted in full, and
    a column space and a solve per weight space and operator instance."""
    names = op_names_for(algebra)
    M = M.with_ops({n: M.ops[n] for n in names})
    end = endomorphisms(M, algebra)
    found, _ = analyze._search(M.ctx, end.tops, 0, analyze.DEFAULT_TRIALS, partial(analyze._fitting_projector, end.runs))
    if found is None:
        return [M]
    parts = per_offset_split(M, names, per_offset_projector(M, end.runs, found[0]), [])
    return [U for part in parts for U in per_offset_decompose(part, algebra)]


def test_decompose_matches_per_offset_recursion(monkeypatch):
    # the split tree at the run tops gives the recursion's bytes; a part's
    # factors are composed with its parent's, and a square one, which is 1,
    # is never multiplied
    rng = random.Random(20261022)
    seen = {"split": 0, "split again": 0, "square parent factor": 0}
    parts, mul, inside = analyze._parts, Mat.__mul__, []

    def is_one(m):
        return m.scalar_value() == m.ctx.one

    def checked_parts(factors, *args):
        seen["square parent factor"] += factors is not None and any(b.rows == b.cols for b, _ in factors.values())
        inside.append(factors)
        try:
            return parts(factors, *args)
        finally:
            inside.pop()

    def checked_mul(a, b):
        assert not (inside and (is_one(a) or is_one(b)))
        return mul(a, b)

    monkeypatch.setattr(analyze, "_parts", checked_parts)
    monkeypatch.setattr(Mat, "__mul__", checked_mul)
    for _ in range(30):
        V, W, algebra, _ = random_split_pair(rng)
        for M in (V, W):
            want = per_offset_decompose(M, algebra)
            assert list(map(module_bytes, decompose(M, algebra).summands)) == list(map(module_bytes, want))
            seen["split"] += len(want) > 1
            seen["split again"] += len(want) > 2
    assert min(seen.values()) >= 10, seen


def test_ladder_decompose_builds_each_summand_once(monkeypatch):
    V = ladder_rung(7, "3", 16)
    end = endomorphisms(V, "D")
    built, modules, cuts, lifted = [], [], [], []
    runs, init, cut = analyze.Runs, WeightModule.__init__, analyze._cut
    lift = runs.lift
    monkeypatch.setattr(runs, "lift", lambda R, phi: lifted.append(phi) or lift(R, phi))
    monkeypatch.setattr(analyze, "Runs", lambda *args: built.append(args) or runs(*args))
    monkeypatch.setattr(WeightModule, "__init__", lambda M, *args, **kw: modules.append(args) or init(M, *args, **kw))
    monkeypatch.setattr(analyze, "_cut", lambda *args: cuts.append(args) or cut(*args))
    dec = decompose(V, "D", end=end)
    assert [U.total_dim() for U in dec.summands] == [168, 168, 168, 84, 84]
    # the split tree is worked at V's run tops: no Runs and one module per
    # returned summand (8 and 8 when each summand was split as a module),
    # and 680 cuts (1,058)
    assert built == [] and len(modules) == 5 and len(cuts) == 680
    # its one run has no transported offset, so no projector is lifted (5)
    assert lifted == []


# irreducibility by Norton's criterion, against the scan of every weight line
# that it replaced


def scan_closure(V, names, k, vec):
    """The graded closure of one weight vector, each operator looked up per vector."""
    ctx = V.ctx
    spans = {j: Echelon() for j in V.offsets()}
    queue = [(k, spans[k].insert(vec))]
    while queue:
        k, vec = queue.pop()
        for name in names:
            t = V.op_target(name, k)
            if t is None or V.dim(t) == 0:
                continue
            m = V.op(name, k)
            got = spans[t].insert([sum((m.data[i][j] * vec[j] for j in range(m.cols)), ctx.zero) for i in range(m.rows)])
            if got is not None:
                queue.append((t, got))
    return spans


def full_scan_irreducible(V, algebra, budget=analyze.DEFAULT_LINE_BUDGET):
    """Every weight line spun, in offset order: the oracle for Norton's criterion.

    Returns the verdict and how many closures it took.
    """
    names = op_names_for(algebra)
    if not V.circular:
        return Verdict.not_applicable(analyze.WINDOWED_REASON), 0
    total = V.total_dim()
    if total == 0:
        return Verdict.no({"kind": "zero_module", "spaces": []}), 0
    ctx = V.ctx
    dims = [(k, V.dim(k)) for k in V.offsets() if V.dim(k)]
    count = sum(analyze._unit_line_count(ctx, d) for _, d in dims)
    if count > budget:
        return Verdict.unknown(f"irreducibility needs {count} line checks, over the budget of {budget}"), 0
    spins = 0
    for k, d in dims:
        for vec in analyze._unit_lines(ctx, d):
            spins += 1
            spans = scan_closure(V, names, k, vec)
            got = sum(s.rank for s in spans.values())
            if got < total:
                witness = {
                    "kind": "submodule",
                    "generator": {"offset": k, "vector": [ctx.show(c) for c in vec]},
                    "spaces": analyze._spans_to_json(V, spans),
                    "dim": got,
                }
                return Verdict.no(witness), spins
    return Verdict.yes(), spins


def count_spins(monkeypatch):
    """Record the seeds of every analyze._spin call."""
    calls = []
    spin = analyze._spin

    def counting(ctx, arrows, seeds):
        calls.append(seeds)
        return spin(ctx, arrows, seeds)

    monkeypatch.setattr(analyze, "_spin", counting)
    return calls


def first_space_lines(V):
    k0 = next(k for k in V.offsets() if V.dim(k))
    return k0, analyze._unit_line_count(V.ctx, V.dim(k0))


def test_irreducible_matches_full_scan_on_random_modules(monkeypatch):
    rng = random.Random(20261020)
    calls = count_spins(monkeypatch)
    seen = {"YES": 0, "NO in V_k0": 0, "NO past V_k0": 0, "windowed": 0}
    for _ in range(200):
        V, W, algebra, _ = random_pair(rng)
        for M in (V, W) if W is not V else (V,):
            want, scanned = full_scan_irreducible(M, algebra)
            del calls[:]
            got = is_irreducible(M, algebra)
            assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)
            if not M.circular:
                seen["windowed"] += 1
                continue
            if not M.total_dim():
                continue
            k0, lines = first_space_lines(M)
            if got.is_yes:
                seen["YES"] += 1
                assert len(calls) == 2 * lines
            elif got.witness["generator"]["offset"] == k0:
                seen["NO in V_k0"] += 1
                assert len(calls) == scanned
            else:
                # the primal pass over V_k0, at most that many dual spins,
                # then the scan from the next offset
                seen["NO past V_k0"] += 1
                assert scanned < len(calls) <= scanned + lines
    assert min(seen.values()) >= 5, seen


def test_irreducible_witness_past_the_first_weight_space(monkeypatch):
    # one-dimensional spaces on an orbit of length 6 with X = 1 up the line
    # 0 -> 1 -> ... -> 5 and Y = 1 down it to offset 1; X_5, Y_1 and Y_0 are
    # 0.  Offsets 1..5 span the only proper submodule and it misses V_0, so
    # every line of V_0 generates V, the dual line at 0 generates only V*_0,
    # and the witness is the line at offset 1
    orbit = compute_orbit(wp(F3, 1, 1), F3)
    r = orbit.length
    one, zero = Mat.identity(F3, 1), Mat.zeros(F3, 1, 1)
    ops = {
        "X": {k: one if k < r - 1 else zero for k in range(r)},
        "Y": {k: one if k > 1 else zero for k in range(r)},
        "Y1": {k: zero for k in range(r)},
    }
    V = WeightModule(F3, orbit, None, {k: ("e",) for k in range(r)}, ops)
    calls = count_spins(monkeypatch)
    got = is_irreducible(V, "D")
    want, scanned = full_scan_irreducible(V, "D")
    assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)
    assert got.witness["generator"] == {"offset": 1, "vector": ["1"]}
    assert got.witness["dim"] == r - 1
    check_submodule_witness(V, op_names_for("D"), got.witness)
    # V_0 in V, V*_0 in V*, then the line at offset 1
    assert scanned == 2 and len(calls) == 3


F7Q3 = make_field(FieldSpec(kind="PRIME_FIELD", p=7, q="3"))


@pytest.mark.parametrize(
    "ctx, params, spins, scanned",
    [
        (F7Q3, {"m": 1, "word": "Y1", "a": ["3"]}, 2, 42),
        (F9, {"m": 2, "word": "YY1", "a": ["1", "2"]}, 20, 60),
    ],
    ids=["F7-m1", "F9-m2"],
)
def test_irreducible_yes_spins_the_first_weight_space_twice(monkeypatch, ctx, params, spins, scanned):
    V = fam("CHAIN_CYCLE", params, ctx)
    calls = count_spins(monkeypatch)
    assert is_irreducible(V, "D").is_yes
    assert len(calls) == spins == 2 * first_space_lines(V)[1]
    assert full_scan_irreducible(V, "D") == (Verdict.yes(), scanned)


@pytest.mark.parametrize(
    "V", [direct_sum(CHAIN1, CHAIN1), fam("CHAIN_ALT", {"m": 2, "a": ["1", "1"]}, F9)], ids=["CHAIN1+CHAIN1", "F9-alt2"]
)
def test_irreducible_no_in_the_first_weight_space_spins_as_the_scan(monkeypatch, V):
    calls = count_spins(monkeypatch)
    got = is_irreducible(V, "D")
    want, scanned = full_scan_irreducible(V, "D")
    assert got == want and got.is_no
    assert got.witness["generator"]["offset"] == first_space_lines(V)[0]
    assert len(calls) == scanned
