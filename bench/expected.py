"""Expected answers of every benchmark op, and the checks that apply them.

``TABLE`` is written by hand.  Each entry names the ops it covers (an
``fnmatch`` pattern over op ids; the first match wins), cites where its
answer comes from, and fixes what that source fixes.  Where no source fixes
an answer, the check re-verifies the witness the command printed instead:
summand dimensions add up, every summand and extension representative
passes the relation checker, every idempotent is one, every intertwiner is
invertible and commutes.  No answer here was captured from the program.

A verdict of UNKNOWN (or an incomplete decomposition, exit code 3) counts
as undecided, not failed, unless the entry fixes the answer.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Expect:
    pattern: str
    source: str
    facts: Dict[str, object] = field(default_factory=dict)


C2 = "README acceptance criterion 2: every grid module passes the relation checker"
SUB = "AQ and A1 relations are a subset of D's (README overview), so they hold wherever D's do"

TABLE: Tuple[Expect, ...] = (
    # ---- grid
    Expect("grid/construct/*", C2 + "; the written file reloads with the reported total dimension"),
    Expect("grid/verify/*/D", C2, {"passed": True}),
    Expect("grid/verify/*", C2 + "; " + SUB, {"passed": True}),
    Expect("grid/realize/FUNCTION_FIELD", "README criterion 1 and test_A1: all 12 identities on 8 degrees hold",
           {"passed": True, "checked": 96}),
    Expect("grid/realize/RATIONAL", "README criterion 1: the identities are polynomial in q, so q = 2 satisfies them",
           {"passed": True, "checked": 96}),
    Expect("grid/suite", "README: the suite has 45 rows and exits 0 only if every row passes",
           {"passed": True, "rows": 45}),
    # ---- structure: answers the README fixes
    Expect("structure/end-decompose/F9_alt4/D", "README criterion 6 (as computed): End_D has dimension 2, two 12-dimensional summands",
           {"end_dim": 2, "summand_dims": [12, 12]}),
    Expect("structure/end-decompose/F9_alt4/*", "test_A6: the subalgebra restrictions split into at least two summands",
           {"min_count": 2}),
    Expect("structure/end-decompose/F9_cc2/D", "README criterion 5: the F9 two-chain cycle is irreducible with scalar endomorphisms",
           {"end_dim": 1, "count": 1}),
    Expect("structure/end-decompose/F9_cc2/*", "README criterion 5 (as computed and certified): both restrictions split into two",
           {"count": 2}),
    Expect("structure/irreducible-indecomposable/F9_cc2", "README criterion 5: irreducible over D",
           {"irreducible": "YES", "indecomposable": "YES"}),
    Expect("structure/end-decompose/F9_cc1/D", "README criterion 5: the one-chain cycle is irreducible over D",
           {"count": 1}),
    Expect("structure/end-decompose/F9_cc1/*", "README criterion 5 / test_A5: the one-chain cycle restricts indecomposably",
           {"count": 1}),
    Expect("structure/irreducible-indecomposable/F9_cc1", "README criterion 5 / test_A5: irreducible over D",
           {"irreducible": "YES", "indecomposable": "YES"}),
    Expect("structure/end-decompose/F9_vq/*", "README criterion 5 / test_A5: the twisted family is irreducible and restricts indecomposably",
           {"count": 1}),
    Expect("structure/irreducible-indecomposable/F9_vq", "suite row analyze/VQ_F_B_A/irreducible-D",
           {"irreducible": "YES", "indecomposable": "YES"}),
    Expect("structure/end-decompose/F9_v1/*", "README criterion 7: isomorphic over D to the twisted family, so the same structure",
           {"count": 1}),
    Expect("structure/irreducible-indecomposable/F9_v1", "README criterion 7: isomorphic over D to the twisted family",
           {"irreducible": "YES", "indecomposable": "YES"}),
    Expect("structure/iso/F9_vq~F9_v1/D", "README criterion 7 / suite row iso/VQ_F_B_A~V1_F_A_B/D", {"verdict": "YES"}),
    Expect("structure/iso/F9_vq~F9_v1/*", "README criterion 7: a D-isomorphism restricts to an isomorphism over AQ and A1",
           {"verdict": "YES"}),
    Expect("structure/iso/F9_alt2~F9_alt2/D", "a module is isomorphic to itself", {"verdict": "YES"}),
    Expect("structure/iso/F9_cc2~F9_alt4/D", "weight spaces of dimension 2 and 4 differ, so no graded isomorphism",
           {"verdict": "NO"}),
    Expect("structure/extend/F9_circAQ", "README criterion 4: the circular AQ module extends uniquely, to the twisted family",
           {"kind": "UNIQUE", "equals_full": True}),
    # ---- structure: no source fixes these; the witnesses are re-checked
    Expect("structure/end-decompose/*", "no source: summand dimensions add up and every summand passes the relations"),
    Expect("structure/irreducible*", "no source: submodule and idempotent witnesses are re-checked"),
    # ---- extension
    Expect("extension/extend/*-impAQ-x*", "README criterion 4: a break at nonzero tau is IMPOSSIBLE at YX=tau, offset 0; "
           "the system of n copies holds n copies of it (block-diagonal known data)",
           {"kind": "IMPOSSIBLE", "conflict": ["YX=tau", 0]}),
    Expect("extension/extend/*-impA1-x*", "tests/test_extend tau-side mirror of criterion 4: IMPOSSIBLE at Y1X=qsigma-1, offset 0",
           {"kind": "IMPOSSIBLE", "conflict": ["Y1X=qsigma-1", 0]}),
    Expect("extension/extend/*-fam*-x1", "README criterion 4: the cut at tau = 0 (and its tau-side mirror) is FAMILY(1)",
           {"kind": "FAMILY", "k": 1}),
    Expect("extension/extend/*-fam*-x2", "criterion 4 and linearity: each of the 2x2 blocks solves the k = 1 system, so k = 4",
           {"kind": "FAMILY", "k": 4}),
    Expect("extension/extend/*-fam*-x3", "criterion 4 and linearity: each of the 3x3 blocks solves the k = 1 system, so k = 9",
           {"kind": "FAMILY", "k": 9}),
    Expect("extension/extend/*-uni*", "tests/test_extend: invertible X forces the unique extension, the module restricted",
           {"kind": "UNIQUE", "equals_full": True}),
    Expect("extension/extend/*-alt4-*", "no source fixes k: the module restricted is a solution, so it lies in the family",
           {"contains_full": True}),
    Expect("extension/extend/F9-circAQ", "README criterion 4: UNIQUE, equal to the twisted circular family",
           {"kind": "UNIQUE", "equals_full": True}),
)


def entry_for(op_id: str) -> Optional[Expect]:
    for e in TABLE:
        if fnmatch.fnmatchcase(op_id, e.pattern):
            return e
    return None


class Mismatch(Exception):
    """An op's answer contradicts its entry or its witness does not check."""


OK, UNDECIDED = "ok", "undecided"


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def _load(path: str):
    from qdweight.wmod import make_module

    with open(path, "r", encoding="utf-8") as fh:
        return make_module(json.load(fh))


def _maps(ctx, entries, rows_of, cols_of) -> Dict[int, object]:
    from qdweight.linalg import Mat

    return {e["offset"]: Mat.from_json(ctx, e["matrix"], rows_of(e["offset"]), cols_of(e["offset"])) for e in entries}


def _commutes(V, W, names, maps) -> bool:
    """maps: V -> W (graded) intertwines every named operator."""
    from qdweight.linalg import Mat

    for name in names:
        for k in V.op_sources(name):
            t = V.op_target(name, k)
            if t is None:
                continue
            left = maps[t] * V.op(name, k) if t in maps else Mat.zeros(V.ctx, W.dim(t), V.dim(k))
            right = W.op(name, k) * maps[k] if k in maps else Mat.zeros(V.ctx, W.dim(t), V.dim(k))
            if left != right:
                return False
    return True


def _names(algebra: str):
    from qdweight.wmod import op_names_for

    return op_names_for(algebra)


# ---------------------------------------------------------------------------
# per-command checks; each returns (status, facts) or raises Mismatch


def _check_construct(op, e, code, out):
    _need(code == 0, f"exit {code}")
    rep = json.loads(out)
    V = _load(op.info["module"])
    _need(rep["written"] == op.info["module"], "wrote another file")
    _need(rep["total_dim"] == V.total_dim() > 0, "reported total_dim disagrees with the file")
    return OK, {}


def _check_verify(op, e, code, out):
    rep = json.loads(out)
    _need(rep["subject"] == op.argv[-1], "checked another algebra")
    _need(rep["passed"] is e.facts["passed"] and not rep["violations"], f"violations: {rep['violations'][:1]}")
    _need(rep["checked"] > 0, "no relation instance checked")
    _need(code == 0, f"exit {code}")
    return OK, {}


def _check_realize(op, e, code, out):
    rep = json.loads(out)
    _need(rep["passed"] is True and not rep["violations"], "realization violates a relation")
    _need(rep["checked"] == e.facts["checked"], f"checked {rep['checked']}")
    _need(code == 0, f"exit {code}")
    return OK, {}


def _check_suite(op, e, code, out):
    rep = json.loads(out)
    _need(rep["seed"] == op.info["seed"], "suite ignored --seed")
    _need(rep["summary"] == {"total": e.facts["rows"], "passed": e.facts["rows"]}, f"summary {rep['summary']}")
    _need(rep["passed"] is True and code == 0, f"exit {code}")
    return OK, {}


def _check_end_decompose(op, e, code, out):
    from qdweight.verify import check_relations
    from qdweight.wmod import make_module

    alg = op.info["algebra"]
    rep = json.loads(out)
    _need(rep["algebra"] == alg, "analyzed over another algebra")
    end, dec = rep["checks"]["end"], rep["checks"]["decompose"]
    _need(end["dim"] >= 1 and len(end["basis"]) == end["dim"], "End basis size disagrees with its dim")
    facts = {"end_dim": end["dim"]}
    if "end_dim" in e.facts:
        _need(end["dim"] == e.facts["end_dim"], f"End dim {end['dim']}")
    if not dec["complete"]:
        _need(not any(k in e.facts for k in ("count", "summand_dims", "min_count")), "decomposition incomplete")
        _need(code == 3, f"incomplete decomposition exits {code}")
        return UNDECIDED, facts
    _need(code == 0, f"exit {code}")
    V = _load(op.info["module"])
    summands = [make_module(s) for s in dec["summands"]]
    dims = sorted(s.total_dim() for s in summands)
    _need(len(summands) == dec["count"] and all(dims), "empty or miscounted summand")
    _need(sum(dims) == V.total_dim(), f"summand dims {dims} do not add up to {V.total_dim()}")
    _need(dec["count"] <= end["dim"], "more summands than End has dimensions")
    for s in summands:
        _need(check_relations(s, alg).passed, "a summand fails the relations")
    if "count" in e.facts:
        _need(dec["count"] == e.facts["count"], f"{dec['count']} summands")
    if "min_count" in e.facts:
        _need(dec["count"] >= e.facts["min_count"], f"{dec['count']} summands")
    if "summand_dims" in e.facts:
        _need(dims == e.facts["summand_dims"], f"summand dims {dims}")
    facts["count"] = dec["count"]
    return OK, facts


def _check_submodule(V, w) -> None:
    """A NO-irreducible witness spans an op-stable proper graded subspace."""
    from qdweight.linalg import Mat

    ctx = V.ctx
    basis = {s["offset"]: Mat(ctx, [[ctx.parse(c) for c in row] for row in s["basis"]]) for s in w["spaces"]}
    got = sum(b.rank() for b in basis.values())
    _need(0 < got == w["dim"] < V.total_dim(), "submodule witness is not proper")
    for name in _names("D"):
        for k, b in basis.items():
            t = V.op_target(name, k)
            if t is None or V.dim(t) == 0:
                continue
            image = (V.op(name, k) * b.transpose()).transpose()
            target = basis.get(t)
            if target is None:
                _need(image.is_zero(), f"{name} leaves the submodule at offset {k}")
                continue
            stacked = Mat(ctx, target.data + image.data, cols=V.dim(t))
            _need(stacked.rank() == target.rank(), f"{name} leaves the submodule at offset {k}")


def _check_idempotent(V, w) -> None:
    maps = _maps(V.ctx, w["maps"], V.dim, V.dim)
    _need(all(m * m == m for m in maps.values()), "witness is not idempotent")
    rank = sum(m.rank() for m in maps.values())
    _need(0 < rank == w["rank"] < V.total_dim(), "idempotent is trivial")
    _need(_commutes(V, V, _names("D"), maps), "idempotent does not commute with the operators")


def _check_irreducible(op, e, code, out):
    rep = json.loads(out)["checks"]
    V = _load(op.info["module"])
    verdicts = {}
    for name, raw in rep.items():
        v = raw["verdict"]
        verdicts[name] = v
        if name in e.facts:
            _need(v == e.facts[name], f"{name} is {v}")
        if v == "NO" and name == "irreducible":
            _check_submodule(V, raw["witness"])
        elif v == "NO":
            _check_idempotent(V, raw["witness"])
    want = 1 if "NO" in verdicts.values() else (3 if "UNKNOWN" in verdicts.values() else 0)
    _need(code == want, f"exit {code}, expected {want}")
    return (UNDECIDED if want == 3 else OK), verdicts


def _check_iso(op, e, code, out):
    rep = json.loads(out)
    v = rep["verdict"]
    if "verdict" in e.facts:
        _need(v == e.facts["verdict"], f"verdict {v}")
    V, W = _load(op.info["left"]), _load(op.info["right"])
    if v == "YES":
        maps = _maps(V.ctx, rep["witness"]["maps"], W.dim, V.dim)
        _need(all(maps[k].is_invertible() for k in V.offsets() if V.dim(k)), "intertwiner not invertible")
        _need(_commutes(V, W, _names(op.info["algebra"]), maps), "intertwiner does not commute")
    elif v == "NO":
        w = rep["witness"]
        _need(w["kind"] == "support_mismatch", f"unchecked NO witness {w['kind']}")
        k = w["offset"]
        _need(V.dim(k) != W.dim(k) and w["dims"] == [V.dim(k), W.dim(k)], "support witness is wrong")
    want = {"YES": 0, "NO": 1}.get(v, 3)
    _need(code == want, f"exit {code}")
    return (UNDECIDED if want == 3 else OK), {}


def _flat(maps: Dict[int, object]) -> List[object]:
    return [v for k in sorted(maps) for row in maps[k].data for v in row]


def _check_extend(op, e, code, out):
    from qdweight.linalg import Mat
    from qdweight.verify import check_relations
    from qdweight.wmod import make_module

    rep = json.loads(out)
    kind = rep["kind"]
    if "kind" in e.facts:
        _need(kind == e.facts["kind"], f"kind {kind}")
    if kind == "IMPOSSIBLE":
        _need(code == 1, f"exit {code}")
        c = rep["conflict"]
        if "conflict" in e.facts:
            _need([c["relation"], c["offset"]] == e.facts["conflict"], f"conflict {c}")
        _need("contains_full" not in e.facts and "equals_full" not in e.facts, "a known solution exists")
        return OK, {}
    _need(code == 0, f"exit {code}")
    V = _load(op.info["module"])
    R = make_module(rep["representative"])
    missing = rep["missing"]
    _need(all(R.ops[n] == V.ops[n] for n in V.ops), "the input operators changed")
    _need(check_relations(R, "D").passed, "representative fails the relations")
    k = rep.get("k", 0)
    basis = rep.get("homogeneous_basis", [])
    _need(len(basis) == k and (kind == "FAMILY") == (k > 0), "family dimension disagrees with its basis")
    if "k" in e.facts:
        _need(k == e.facts["k"], f"k = {k}")
    if e.facts.get("equals_full") or e.facts.get("contains_full"):
        full = _load(op.info["full"])
        if e.facts.get("equals_full"):
            _need(R.ops[missing] == full.ops[missing], "representative differs from the reference module")
        if e.facts.get("contains_full"):
            ctx = V.ctx
            rows = [_flat(_maps(ctx, b, lambda t: V.dim(V.op_target(missing, t)), V.dim)) for b in basis]
            diff = [a - b for a, b in zip(_flat(full.ops[missing]), _flat(R.ops[missing]))]
            span = Mat(ctx, rows, cols=len(diff)).rank() if rows else 0
            _need(Mat(ctx, rows + [diff], cols=len(diff)).rank() == span, "the module restricted is not in the family")
    return OK, {"kind": kind}


CHECKERS = {
    "construct": _check_construct,
    "verify": _check_verify,
    "realize": _check_realize,
    "suite": _check_suite,
    "iso": _check_iso,
    "extend": _check_extend,
}


def check(op, code: int, out: str) -> Tuple[str, dict]:
    """Status (ok or undecided) and facts of one op; raises Mismatch."""
    e = entry_for(op.id)
    _need(e is not None, "no expected-answer entry")
    cmd = op.argv[0]
    if cmd == "analyze":
        fn = _check_end_decompose if "end,decompose" in op.argv else _check_irreducible
    else:
        fn = CHECKERS[cmd]
    try:
        return fn(op, e, code, out)
    except (KeyError, TypeError, ValueError) as exc:
        raise Mismatch(f"unreadable answer: {exc!r}") from None


def cross_check(facts: Dict[str, dict]) -> List[str]:
    """Verdicts that two ops of one pass give about the same module agree.

    Indecomposable over D holds exactly when the D decomposition has one
    summand, and irreducible implies it.
    """
    problems = []
    for op_id, f in facts.items():
        if not op_id.startswith("structure/irreducible"):
            continue
        tag = op_id.rsplit("/", 1)[1]
        count = facts.get(f"structure/end-decompose/{tag}/D", {}).get("count")
        if count is None:
            continue
        if f.get("indecomposable") in ("YES", "NO") and (f["indecomposable"] == "YES") != (count == 1):
            problems.append(f"{tag}: indecomposable {f['indecomposable']} but {count} D-summands")
        if f.get("irreducible") == "YES" and count != 1:
            problems.append(f"{tag}: irreducible but {count} D-summands")
    return problems
