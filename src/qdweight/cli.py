"""Command-line front end: construct family modules, verify relations,
analyze structure, solve extensions, compare modules, and run the full
verification suite.

Scenario files come in as JSON validated against a versioned schema;
reports go out as canonical JSON (sorted keys, canonical element
encodings), so fixed inputs and seeds produce byte-identical output.
--pretty switches to a human rendering: a weight-line diagram with the
operator scalars on the arrows, plus indented JSON.

Exit codes: 0 success or affirmative verdict, 1 negative verdict or
relation violation, 2 usage or validation error, 3 an undecided
(UNKNOWN / NOT_APPLICABLE) verdict for a requested check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .analyze import (
    DEFAULT_LINE_BUDGET,
    DEFAULT_TRIALS,
    EndBasis,
    NotApplicable,
    are_isomorphic,
    decompose,
    endomorphisms,
    equidimension_check,
    is_indecomposable,
    is_irreducible,
    weight_dims,
)
from .extend import IMPOSSIBLE, extend_to_D
from .families import construct_family
from .fields import FieldSpec, make_field
from .verify import check_relations, polynomial_realization
from .wmod import WeightModule, make_module

SCHEMA_VERSION = "1"

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema", "action", "field"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "action": {"const": "construct"},
        "field": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {
                    "enum": [
                        "RATIONAL",
                        "CYCLOTOMIC",
                        "FUNCTION_FIELD",
                        "PRIME_FIELD",
                        "EXT_FIELD",
                    ]
                },
                "q": {"type": "string"},
                "n": {"type": "integer"},
                "p": {"type": "integer"},
                "f": {"type": "array", "items": {"type": "integer"}, "minItems": 2},
            },
        },
        "q": {"type": "string"},
        "family": {
            "type": "object",
            "required": ["name"],
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
        },
        "window": {
            "type": "array",
            "items": {"type": "integer"},
            "minItems": 2,
            "maxItems": 2,
        },
    },
}


class CliError(ValueError):
    """A usage or validation problem, worded for the command line."""


def default_seed() -> int:
    raw = os.environ.get("GWA_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"GWA_SEED must be an integer, got {raw!r}") from None


def load_scenario(path: str) -> dict:
    # imported here: only scenario files need it, and it is costly to load
    from jsonschema import Draft7Validator
    from jsonschema.exceptions import best_match

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read scenario {path}: {exc}") from None
    # jsonschema.validate less its meta-check: the schema is a constant,
    # which the tests check once
    error = best_match(Draft7Validator(SCENARIO_SCHEMA).iter_errors(raw))
    if error is not None:
        raise CliError(f"scenario {path} is invalid: {error.message}")
    return raw


def scenario_field(sc: dict):
    """The field context a scenario describes; a top-level q must agree."""
    spec_raw = dict(sc["field"])
    if "q" in sc:
        if spec_raw.get("q") not in (None, sc["q"]):
            raise CliError("scenario q disagrees with the field spec's q")
        spec_raw.setdefault("q", sc["q"])
    try:
        return make_field(FieldSpec.from_json(spec_raw))
    except ValueError as exc:
        raise CliError(f"bad field spec: {exc}") from None


def build_scenario_module(sc: dict) -> WeightModule:
    if "family" not in sc:
        raise CliError("construct scenario needs a family entry")
    ctx = scenario_field(sc)
    window = tuple(sc["window"]) if "window" in sc else None
    try:
        return construct_family(sc["family"], ctx, window=window)
    except ValueError as exc:
        raise CliError(f"cannot construct: {exc}") from None


def load_module(path: str) -> WeightModule:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read module {path}: {exc}") from None
    try:
        return make_module(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"module {path} is invalid: {exc}") from None


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_module(V: WeightModule) -> str:
    """Weight-line diagram: one block per offset, operator scalars on arrows."""
    show = V.ctx.show
    if V.circular:
        head = f"circular weight line of length {V.orbit.length}"
    else:
        head = f"weight line on window [{V.window[0]}, {V.window[1]}]"
    base = V.orbit.base
    lines = [
        f"{head}; base point ({show(base.a)}, {show(base.b)}); total dim {V.total_dim()}"
    ]
    for k in V.offsets():
        pt = V.point(k)
        labs = ", ".join(V.label_list(k)) or "-"
        lines.append(f"  [{k:>3}] dim {V.dim(k)}  tau={show(pt.a)}  sigma={show(pt.b)}  ({labs})")
        for name in sorted(V.ops):
            if k not in V.ops[name]:
                continue
            m = V.ops[name][k]
            if not (m.rows and m.cols):
                continue
            arrow = "->" if name == "X" else "<-"
            shown = json.dumps(m.to_json())
            lines.append(f"        {name:>2} {arrow} [{V.op_target(name, k):>3}]: {shown}")
    return "\n".join(lines)


def emit(report: dict, pretty: bool, diagram: Optional[str] = None) -> None:
    if pretty:
        if diagram:
            print(diagram)
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(canonical_json(report))


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    sc = load_scenario(args.scenario)
    V = build_scenario_module(sc)
    raw = V.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(raw) + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from None
        emit({"written": args.out, "total_dim": V.total_dim()}, args.pretty,
             render_module(V) if args.pretty else None)
    else:
        emit(raw, args.pretty, render_module(V) if args.pretty else None)
    return 0


def cmd_verify(args) -> int:
    V = load_module(args.module)
    report = check_relations(V, args.algebra)
    emit(report.to_json(), args.pretty, render_module(V) if args.pretty else None)
    return 0 if report.passed else 1


def _verdict_status(raw: dict) -> str:
    return {"YES": "ok", "NO": "neg"}.get(raw.get("verdict"), "und")


def _exit_code(statuses: List[str]) -> int:
    """1 if any check came out negative, else 3 if any is undecided, else 0."""
    return 1 if "neg" in statuses else 3 if "und" in statuses else 0


def run_checks(V: WeightModule, checks, algebra, seed, trials, budget) -> Tuple[dict, int]:
    # End(V) over the algebra, solved at most once, by the first check that reads it
    end: Optional[EndBasis] = None

    def verdict(v) -> Tuple[dict, str]:
        raw = v.to_json()
        return raw, _verdict_status(raw)

    def dec() -> Tuple[dict, str]:
        d = decompose(V, algebra, seed, trials, end=end)
        return d.to_json(), "ok" if d.complete else "und"

    run = {
        "dims": lambda: ({"dims": [[k, d] for k, d in weight_dims(V)]}, "ok"),
        "equidim": lambda: verdict(equidimension_check(V)),
        "irreducible": lambda: verdict(is_irreducible(V, algebra, budget=budget)),
        "indecomposable": lambda: verdict(is_indecomposable(V, algebra, seed, trials, end=end)),
        "end": lambda: (end.to_json(), "ok"),
        "decompose": dec,
    }
    for name in checks:
        if name not in run:
            raise CliError(f"unknown check {name!r}")
    results: Dict[str, dict] = {}
    statuses: List[str] = []
    for name in checks:
        try:
            if end is None and name in ("end", "decompose", "indecomposable"):
                end = endomorphisms(V, algebra)
            results[name], status = run[name]()
        except NotApplicable as exc:
            results[name], status = {"verdict": "NOT_APPLICABLE", "reason": str(exc)}, "und"
        statuses.append(status)
    return {"algebra": algebra, "seed": seed, "checks": results}, _exit_code(statuses)


def _require_nonnegative(**flags: int) -> None:
    for name, value in flags.items():
        if value < 0:
            raise CliError(f"--{name} must be nonnegative, got {value}")


def cmd_analyze(args) -> int:
    _require_nonnegative(trials=args.trials, budget=args.budget)
    V = load_module(args.module)
    checks = [c for c in args.checks.split(",") if c]
    if not checks:
        raise CliError("no checks requested")
    seed = args.seed if args.seed is not None else default_seed()
    report, code = run_checks(V, checks, args.algebra, seed, args.trials, args.budget)
    emit(report, args.pretty, render_module(V) if args.pretty else None)
    return code


def cmd_extend(args) -> int:
    V = load_module(args.module)
    res = extend_to_D(V)
    pretty_diagram = None
    if args.pretty and res.representative is not None:
        pretty_diagram = render_module(res.representative)
    emit(res.to_json(), args.pretty, pretty_diagram)
    return 1 if res.kind == IMPOSSIBLE else 0


def cmd_iso(args) -> int:
    _require_nonnegative(trials=args.trials)
    V = load_module(args.left)
    W = load_module(args.right)
    seed = args.seed if args.seed is not None else default_seed()
    verdict = are_isomorphic(V, W, args.algebra, seed=seed, trials=args.trials)
    raw = verdict.to_json()
    emit(raw, args.pretty)
    return _exit_code([_verdict_status(raw)])


def cmd_realize(args) -> int:
    f = tuple(int(c) for c in args.fpoly.split(",")) if args.fpoly else None
    spec = FieldSpec(kind=args.field, n=args.n, p=args.p, f=f, q=args.q)
    ctx = make_field(spec)
    mats, report = polynomial_realization(ctx, args.N)
    raw = report.to_json()
    memo: Dict[object, str] = {}
    raw["matrices"] = {name: m.to_json(memo) for name, m in sorted(mats.items())}
    raw["degree_bound"] = args.N
    emit(raw, args.pretty)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# the documented grid and the suite


def grid_scenarios() -> List[dict]:
    """The documented relation grid: every family constructor on every field
    kind where its preconditions hold, with varied parameters and windows."""
    QQ = {"kind": "RATIONAL", "q": "2"}
    FF = {"kind": "FUNCTION_FIELD"}
    C5 = {"kind": "CYCLOTOMIC", "n": 5}
    F9 = {"kind": "EXT_FIELD", "p": 3, "f": [1, 0, 1], "q": "2"}
    F4 = {"kind": "EXT_FIELD", "p": 2, "f": [1, 1, 1], "q": "[0,1]"}

    def sc(field, name, params, window=None):
        out = {
            "schema": SCHEMA_VERSION,
            "action": "construct",
            "field": field,
            "family": {"name": name, "params": params},
        }
        if window is not None:
            out["window"] = list(window)
        return out

    return [
        # rationals, q = 2
        sc(QQ, "VQ_B_A", {"b": "3", "a": "1/2"}, (-3, 3)),
        sc(QQ, "VQ_JJ_1", {"a": "2"}, (-3, 3)),
        sc(QQ, "VQ_JJ_CD", {"c": "1", "d": "2"}, (-4, 2)),
        # half-line supports crossing the cut need the cut parameters
        sc(QQ, "VQ_JJ_3", {"a": "0"}, (-4, 1)),
        sc(QQ, "VQ_JJ_4", {"a": "0"}, (-1, 4)),
        # generic parameters are valid away from the cut
        sc(QQ, "VQ_JJ_3", {"a": "5"}, (-3, 0)),
        sc(QQ, "VQ_JJ_4", {"a": "5"}, (1, 4)),
        sc(QQ, "V1_A_B", {"a": "1/2", "b": "3"}, (-3, 3)),
        sc(QQ, "V1_JJ_1", {"b": "3"}, (-3, 3)),
        sc(QQ, "V1_JJ_CD", {"c": "2", "d": "3"}, (-3, 3)),
        sc(QQ, "V1_JJ_3", {"b": "1/2"}, (-4, 1)),
        sc(QQ, "V1_JJ_4", {"b": "1"}, (-1, 4)),
        sc(QQ, "VCD_TWOROW", {"c": "1", "d": "1"}, (-3, 3)),
        # rational function field, q = t
        sc(FF, "VQ_B_A", {"b": "2", "a": "[0,1]"}, (-3, 3)),
        sc(FF, "VQ_JJ_1", {"a": "[0,1]"}, (-2, 4)),
        sc(FF, "VQ_JJ_CD", {"c": "[0,1]", "d": "1"}, (-3, 3)),
        sc(FF, "VQ_JJ_3", {"a": "0"}, (-4, 1)),
        sc(FF, "VQ_JJ_4", {"a": "0"}, (-1, 4)),
        sc(FF, "V1_A_B", {"a": "[0,1]", "b": "2"}, (-3, 3)),
        sc(FF, "V1_JJ_1", {"b": "[0,1]"}, (-3, 3)),
        sc(FF, "V1_JJ_CD", {"c": "1", "d": "[0,1]"}, (-3, 3)),
        sc(FF, "V1_JJ_3", {"b": "[1]|[0,1]"}, (-4, 1)),
        sc(FF, "V1_JJ_4", {"b": "1"}, (-1, 4)),
        sc(FF, "VCD_TWOROW", {"c": "[0,1]", "d": "2"}, (-3, 3)),
        # cyclotomic order 5, q = zeta_5 (finite multiplicative order, char 0)
        sc(C5, "VQ_B_A", {"b": "3", "a": "1/2"}, (-3, 3)),
        sc(C5, "V1_A_B", {"a": "[0,1]", "b": "2"}, (-3, 3)),
        sc(C5, "V1_JJ_1", {"b": "2"}, (-3, 3)),
        sc(C5, "V1_JJ_CD", {"c": "[0,1]", "d": "1"}, (-3, 3)),
        sc(C5, "V1_JJ_3", {"b": "[0,0,0,0,1]"}, (-4, 1)),
        sc(C5, "V1_JJ_4", {"b": "1"}, (-1, 4)),
        sc(C5, "VCD_TWOROW", {"c": "1", "d": "[0,1]"}, (-3, 3)),
        # nine elements: characteristic 3, q = 2 of order 2, circular length 6
        sc(F9, "VQ_F_B_A", {"f": "2", "b": "[0,1]", "a": "[0,1]"}),
        sc(F9, "V1_F_A_B", {"f": "[1,1]", "a": "[0,1]", "b": "1"}),
        sc(F9, "CHAIN_CYCLE", {"m": 1, "word": "Y", "a": ["1"]}),
        sc(F9, "CHAIN_CYCLE", {"m": 2, "word": "YY1", "a": ["1", "2"]}),
        sc(F9, "CHAIN_ALT", {"m": 4, "a": ["1", "1", "1", "1"]}),
        # four elements: characteristic 2, q = t of order 3, circular length 6
        sc(F4, "V1_F_A_B", {"f": "[0,1]", "a": "[0,1]", "b": "[0,1]"}),
        sc(F4, "CHAIN_CYCLE", {"m": 1, "word": "Y1", "a": ["[0,1]"]}),
        sc(F4, "CHAIN_ALT", {"m": 2, "a": ["1", "[0,1]"]}),
    ]


def _field_tag(field: dict) -> str:
    kind = field["kind"]
    if kind == "RATIONAL":
        return f"RATIONAL(q={field['q']})"
    if kind == "CYCLOTOMIC":
        return f"CYCLOTOMIC({field['n']})"
    if kind == "FUNCTION_FIELD":
        return "FUNCTION_FIELD"
    if kind == "PRIME_FIELD":
        return f"PRIME_FIELD({field['p']},q={field['q']})"
    degree = len(field["f"]) - 1
    return f"EXT_FIELD({field['p']}^{degree},q={field['q']})"


def run_suite(seed: int) -> dict:
    """The full verification grid plus the fixed regression and analysis
    oracles, as one deterministic report."""
    rows: List[dict] = []

    def add(name: str, ok: bool, detail: dict) -> None:
        rows.append(
            {"index": len(rows), "name": name, "status": "PASS" if ok else "FAIL", "detail": detail}
        )

    for sc in grid_scenarios():
        name = f"grid/{sc['family']['name']}/{_field_tag(sc['field'])}"
        try:
            V = build_scenario_module(sc)
            report = check_relations(V, "D")
            add(
                name,
                report.passed,
                {
                    "checked": report.checked,
                    "violations": len(report.violations),
                    "total_dim": V.total_dim(),
                },
            )
        except CliError as exc:
            add(name, False, {"error": str(exc)})

    # polynomial realization over the rational function field
    ctx_ff = make_field(FieldSpec(kind="FUNCTION_FIELD"))
    mats, report = polynomial_realization(ctx_ff, 8)
    t = ctx_ff.q
    spots = (
        mats["d1"].data[1][2] == t + 1
        and mats["d"].data[2][3] == ctx_ff.from_int(3)
    )
    add(
        "realize/FUNCTION_FIELD/N=8",
        report.passed and spots,
        {"checked": report.checked, "violations": len(report.violations), "spot_values": spots},
    )

    # fixed regression: the catalogued defective module fails at one spot
    ctx_f3 = make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))
    remark = construct_family({"name": "REMARK_136", "params": {}}, ctx_f3)
    rep = check_relations(remark, "D")
    expected_spot = (
        len(rep.violations) == 1
        and rep.violations[0]["relation"] == "Y1X=qsigma-1"
        and rep.violations[0]["offset"] == 2
        and rep.violations[0]["label"] == "v3"
    )
    add(
        "regression/REMARK_136/single-violation",
        expected_spot,
        {"violations": [
            {"relation": v["relation"], "offset": v["offset"], "label": v["label"]}
            for v in rep.violations
        ]},
    )

    # seeded analysis oracles on the circular instances
    ctx_f9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="2"))
    twisted = construct_family(
        {"name": "VQ_F_B_A", "params": {"f": "2", "b": "[0,1]", "a": "[0,1]"}}, ctx_f9
    )
    irr = is_irreducible(twisted, "D")
    add("analyze/VQ_F_B_A/irreducible-D", irr.is_yes, irr.to_json())

    chain = construct_family(
        {"name": "CHAIN_ALT", "params": {"m": 4, "a": ["1", "1", "1", "1"]}}, ctx_f9
    )
    dec = decompose(chain, "AQ", seed=seed)
    add(
        "analyze/CHAIN_ALT/decompose-AQ",
        dec.complete and dec.count >= 2,
        {"count": dec.count, "complete": dec.complete},
    )

    partner = construct_family(
        {"name": "V1_F_A_B", "params": {"f": "2", "a": "[0,1]", "b": "[0,1]"}}, ctx_f9
    )
    verdict = are_isomorphic(twisted, partner, "D", seed=seed)
    add("iso/VQ_F_B_A~V1_F_A_B/D", verdict.is_yes, {"verdict": verdict.kind})

    from .wmod import circ_no_break, construct_gwa
    from .basering import WeightPoint

    base = WeightPoint(ctx_f9.parse("[0,1]"), ctx_f9.parse("[0,1]"))
    gwa = construct_gwa("AQ", circ_no_break("2"), base, None, ctx_f9)
    ext = extend_to_D(gwa)
    matches = ext.kind == "UNIQUE" and are_isomorphic(ext.representative, twisted, "D", seed=seed).is_yes
    add("extend/circular-AQ/unique-matches-twisted", matches, {"kind": ext.kind})

    passed = sum(1 for r in rows if r["status"] == "PASS")
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "rows": rows,
        "summary": {"total": len(rows), "passed": passed},
        "passed": passed == len(rows),
    }


def cmd_suite(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    report = run_suite(seed)
    if args.pretty:
        width = max(len(r["name"]) for r in report["rows"])
        for r in report["rows"]:
            print(f"{r['index']:>3}  {r['name']:<{width}}  {r['status']}")
        print(
            f"passed {report['summary']['passed']} of {report['summary']['total']} (seed {seed})"
        )
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(canonical_json(report))
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdweight",
        description="Exact weight-module computations: construct, verify, analyze, extend, compare.",
    )
    ap.add_argument("--pretty", action="store_true", help="human rendering instead of canonical JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family module from a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", help="write the module JSON here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check the defining relations on a module file")
    p.add_argument("module", help="module JSON path")
    p.add_argument("--algebra", choices=["D", "AQ", "A1"], default="D")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="run structural checks on a module file")
    p.add_argument("module", help="module JSON path")
    p.add_argument(
        "--checks",
        default="dims,equidim",
        help="comma list: dims,equidim,irreducible,indecomposable,decompose,end",
    )
    p.add_argument("--algebra", choices=["D", "AQ", "A1"], default="D")
    p.add_argument("--seed", type=int, default=None, help="overrides GWA_SEED")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--budget", type=int, default=DEFAULT_LINE_BUDGET, help="line budget for irreducibility")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extend", help="solve for the missing lowering operator")
    p.add_argument("module", help="module JSON path carrying X and one of Y, Y1")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("iso", help="decide graded isomorphism of two module files")
    p.add_argument("left", help="module JSON path")
    p.add_argument("right", help="module JSON path")
    p.add_argument("--algebra", choices=["D", "AQ", "A1"], default="D")
    p.add_argument("--seed", type=int, default=None, help="overrides GWA_SEED")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("realize", help="matrices of the polynomial operators and their relation report")
    p.add_argument(
        "--field",
        required=True,
        choices=["RATIONAL", "CYCLOTOMIC", "FUNCTION_FIELD", "PRIME_FIELD", "EXT_FIELD"],
    )
    p.add_argument("--q", help="distinguished unit, canonical encoding")
    p.add_argument("--p", type=int, help="characteristic for prime/extension fields")
    p.add_argument("--n", type=int, help="cyclotomic order")
    p.add_argument("--fpoly", help="extension modulus coefficients, comma list, low degree first")
    p.add_argument("--N", type=int, required=True, help="polynomial degree bound")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("suite", help="run the documented verification grid and oracles")
    p.add_argument("--seed", type=int, default=None, help="overrides GWA_SEED")
    p.set_defaults(func=cmd_suite)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every validation error, wherever it is raised, exits 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
