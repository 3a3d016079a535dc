"""Fixtures and op lists of the three benchmark workloads.

One op is one ``qdweight`` subcommand, given as the argument list that
``qdweight.cli.main`` receives.  ``build`` is the set-up step: it writes
every input file an op reads (scenario files for ``grid``, module files for
``structure`` and ``extension``) with public library functions, and returns
the ops.  Fixtures and sizes are fixed; the seed only orders the ops and is
passed to the commands that take one (``analyze``, ``iso``, ``suite``), so
it never changes the amount of work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("grid", "structure", "extension")

# scenario field specs, as `construct` scenario files spell them
F9 = {"kind": "EXT_FIELD", "p": 3, "f": [1, 0, 1], "q": "2"}
F4 = {"kind": "EXT_FIELD", "p": 2, "f": [1, 1, 1], "q": "[0,1]"}
F5 = {"kind": "PRIME_FIELD", "p": 5, "q": "2"}
F7 = {"kind": "PRIME_FIELD", "p": 7, "q": "3"}
QQ = {"kind": "RATIONAL", "q": "2"}
FF = {"kind": "FUNCTION_FIELD"}

TWISTED = {"name": "VQ_F_B_A", "params": {"f": "2", "b": "[0,1]", "a": "[0,1]"}}
PARTNER = {"name": "V1_F_A_B", "params": {"f": "2", "a": "[0,1]", "b": "[0,1]"}}


@dataclass(frozen=True)
class Op:
    """One subcommand; ``after`` names the ops whose output it reads."""

    id: str
    argv: Tuple[str, ...]
    after: Tuple[str, ...] = ()
    # paths and facts the answer checks need, e.g. the module file an
    # analyze op read or the reference module an extension must reproduce
    info: Dict[str, object] = field(default_factory=dict, hash=False, compare=False)


def _field(spec: dict):
    from qdweight.fields import FieldSpec, make_field

    return make_field(FieldSpec.from_json(spec))


def _write_json(path: str, raw: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(raw, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def _write_module(path: str, V) -> str:
    return _write_json(path, V.to_json())


# ---------------------------------------------------------------------------
# grid: construct every documented scenario, verify it over D, AQ and A1


def _grid_tag(i: int, sc: dict) -> str:
    return f"{i:02d}-{sc['family']['name']}-{sc['field']['kind']}"


def build_grid(workdir: str, seed: int) -> List[Op]:
    from qdweight.cli import grid_scenarios

    ops: List[Op] = []
    for i, sc in enumerate(grid_scenarios()):
        tag = _grid_tag(i, sc)
        scen = _write_json(os.path.join(workdir, f"sc{i:02d}.json"), sc)
        out = os.path.join(workdir, f"m{i:02d}.json")
        cid = f"grid/construct/{tag}"
        ops.append(Op(cid, ("construct", "--scenario", scen, "--out", out), info={"module": out}))
        for alg in ("D", "AQ", "A1"):
            ops.append(
                Op(f"grid/verify/{tag}/{alg}", ("verify", out, "--algebra", alg), after=(cid,))
            )
    ops.append(Op("grid/realize/FUNCTION_FIELD", ("realize", "--field", "FUNCTION_FIELD", "--N", "8")))
    ops.append(Op("grid/realize/RATIONAL", ("realize", "--field", "RATIONAL", "--q", "2", "--N", "8")))
    ops.append(Op("grid/suite", ("suite", "--seed", str(seed)), info={"seed": seed}))
    return ops


# ---------------------------------------------------------------------------
# structure: End, decompose, irreducibility and isomorphism on circular
# finite-field modules

# (tag, field, family, algebras for end+decompose, irreducibility checks)
ALL = ("D", "AQ", "A1")
IRR = "irreducible,indecomposable"
STRUCTURE_FIXTURES = (
    ("F9_vq", F9, TWISTED, ALL, IRR),
    ("F9_v1", F9, PARTNER, (), None),
    ("F9_cc1", F9, {"name": "CHAIN_CYCLE", "params": {"m": 1, "word": "Y", "a": ["1"]}}, ALL, IRR),
    ("F9_cc2", F9, {"name": "CHAIN_CYCLE", "params": {"m": 2, "word": "YY1", "a": ["1", "2"]}}, ALL, IRR),
    ("F9_alt2", F9, {"name": "CHAIN_ALT", "params": {"m": 2, "a": ["1", "1"]}}, ALL, IRR),
    ("F9_alt4", F9, {"name": "CHAIN_ALT", "params": {"m": 4, "a": ["1", "1", "1", "1"]}}, ("D",), IRR),
    ("F9_alt6", F9, {"name": "CHAIN_ALT", "params": {"m": 6, "a": ["1"] * 6}}, ("D",), "irreducible"),
    ("F4_cc2", F4, {"name": "CHAIN_CYCLE", "params": {"m": 2, "word": "YY1", "a": ["1", "[0,1]"]}}, ALL, IRR),
    ("F4_alt2", F4, {"name": "CHAIN_ALT", "params": {"m": 2, "a": ["1", "[0,1]"]}}, ALL, IRR),
    ("F5_cc1", F5, {"name": "CHAIN_CYCLE", "params": {"m": 1, "word": "Y", "a": ["2"]}}, ALL, IRR),
    ("F5_cc2", F5, {"name": "CHAIN_CYCLE", "params": {"m": 2, "word": "YY1", "a": ["1", "2"]}}, ("D",), None),
    ("F7_cc1", F7, {"name": "CHAIN_CYCLE", "params": {"m": 1, "word": "Y1", "a": ["3"]}}, ALL, IRR),
    ("F7_cc1y", F7, {"name": "CHAIN_CYCLE", "params": {"m": 1, "word": "Y", "a": ["2"]}}, ("D",), IRR),
)

# (left, right, algebra): pairs whose answer a source fixes
ISO_PAIRS = (
    ("F9_vq", "F9_v1", "D"),
    ("F9_vq", "F9_v1", "AQ"),
    ("F9_vq", "F9_v1", "A1"),
    ("F9_alt2", "F9_alt2", "D"),
    ("F9_cc2", "F9_alt4", "D"),
)


def _construct(sc_field: dict, family: dict, window=None):
    from qdweight.cli import build_scenario_module

    sc = {"schema": "1", "action": "construct", "field": sc_field, "family": family}
    if window is not None:
        sc["window"] = list(window)
    return build_scenario_module(sc)


def build_structure(workdir: str, seed: int) -> List[Op]:
    from qdweight.basering import WeightPoint
    from qdweight.wmod import circ_no_break, construct_gwa

    ops: List[Op] = []
    paths: Dict[str, str] = {}
    s = str(seed)
    for tag, fld, family, algebras, checks in STRUCTURE_FIXTURES:
        path = _write_module(os.path.join(workdir, f"{tag}.json"), _construct(fld, family))
        paths[tag] = path
        info = {"module": path, "fixture": tag}
        for alg in algebras:
            ops.append(
                Op(
                    f"structure/end-decompose/{tag}/{alg}",
                    ("analyze", path, "--checks", "end,decompose", "--algebra", alg, "--seed", s),
                    info=dict(info, algebra=alg),
                )
            )
        if checks:
            ops.append(
                Op(
                    f"structure/{checks.replace(',', '-')}/{tag}",
                    ("analyze", path, "--checks", checks, "--seed", s),
                    info=dict(info, algebra="D"),
                )
            )
    for left, right, alg in ISO_PAIRS:
        ops.append(
            Op(
                f"structure/iso/{left}~{right}/{alg}",
                ("iso", paths[left], paths[right], "--algebra", alg, "--seed", s),
                info={"left": paths[left], "right": paths[right], "algebra": alg},
            )
        )
    # one extension solve, so the extend layer has a measured value to stay
    # flat against on this workload
    ctx = _field(F9)
    gwa = construct_gwa("AQ", circ_no_break("2"), WeightPoint(ctx.parse("[0,1]"), ctx.parse("[0,1]")), None, ctx)
    path = _write_module(os.path.join(workdir, "F9_circAQ.json"), gwa)
    ops.append(Op("structure/extend/F9_circAQ", ("extend", path), info={"module": path, "full": paths["F9_vq"]}))
    return ops


# ---------------------------------------------------------------------------
# extension: the global extension solve on windowed char-0 GWA modules and
# on restricted circular finite-field modules

# base points (tau, sigma) of the break lines; sigma = 1/q is the AQ break
INV_Q = {"QQ": "1/2", "FF": "[1]|[0,1]"}
FIELDS_0 = {"QQ": QQ, "FF": FF}
STRAIGHT_A = {"QQ": "1/2", "FF": "[0,1]"}

# (field, half-width, input kind, copies)
EXTENSION_WINDOWED = (
    [("QQ", 10, kind, 1) for kind in ("impAQ", "impA1", "famA1")]
    + [("QQ", 20, kind, 1) for kind in ("impAQ", "famAQ", "uniAQ", "impA1", "famA1", "uniA1")]
    + [("QQ", 10, kind, 2) for kind in ("impAQ", "famAQ", "famA1", "uniAQ", "uniA1")]
    + [("QQ", 20, "impAQ", 2), ("QQ", 10, "famAQ", 3)]
    + [("FF", 10, kind, 1) for kind in ("impAQ", "famA1", "uniAQ", "impA1")]
    + [("FF", 20, "impAQ", 1)]
)

# restricted CHAIN_ALT m=4 fixtures (field tag, field, junction parameters, flavors)
EXTENSION_CHAINS = (
    ("F9", F9, ["1", "1", "1", "1"], ("AQ", "A1")),
    ("F5", F5, ["1", "1", "1", "1"], ("AQ",)),
)


def _windowed_input(fname: str, W: int, kind: str):
    """The one-flavor input and, for `uni`, the full module it restricts."""
    from qdweight.basering import WeightPoint
    from qdweight.wmod import construct_gwa, restrict, with_breaks

    ctx = _field(FIELDS_0[fname])
    win = (-W, W)
    flavor = kind[3:]

    def wp(a: str, b: str):
        return WeightPoint(ctx.parse(a), ctx.parse(b))

    if kind.startswith("uni"):
        family = (
            {"name": "VQ_B_A", "params": {"b": "3", "a": STRAIGHT_A[fname]}}
            if flavor == "AQ"
            else {"name": "V1_A_B", "params": {"a": STRAIGHT_A[fname], "b": "3"}}
        )
        full = _construct(FIELDS_0[fname], family, win)
        return restrict(full, flavor), full
    if flavor == "AQ":
        # X vanishes at the sigma break; tau there is 1 (imp) or 0 (fam)
        base = wp("1" if kind == "impAQ" else "0", INV_Q[fname])
    else:
        # X vanishes at the tau break; sigma there is 1 (imp) or 1/q (fam)
        base = wp("0", "1" if kind == "impA1" else INV_Q[fname])
    return construct_gwa(flavor, with_breaks([0, 1], []), base, win, ctx), None


def _copies(V, n: int):
    from qdweight.analyze import direct_sum

    out = V
    for _ in range(n - 1):
        out = direct_sum(out, V)
    return out


def build_extension(workdir: str, seed: int) -> List[Op]:
    from qdweight.basering import WeightPoint
    from qdweight.wmod import circ_no_break, construct_gwa, restrict

    ops: List[Op] = []
    for fname, W, kind, n in EXTENSION_WINDOWED:
        tag = f"{fname}-W{W}-{kind}-x{n}"
        V, full = _windowed_input(fname, W, kind)
        path = _write_module(os.path.join(workdir, f"{tag}.json"), _copies(V, n))
        info = {"module": path, "kind": kind, "copies": n, "field": fname}
        if full is not None:
            info["full"] = _write_module(os.path.join(workdir, f"{tag}.full.json"), _copies(full, n))
        ops.append(Op(f"extension/extend/{tag}", ("extend", path), info=info))
    for fname, fld, a, flavors in EXTENSION_CHAINS:
        full = _construct(fld, {"name": "CHAIN_ALT", "params": {"m": 4, "a": a}})
        full_path = _write_module(os.path.join(workdir, f"{fname}-alt4.full.json"), full)
        for flavor in flavors:
            tag = f"{fname}-alt4-{flavor}"
            path = _write_module(os.path.join(workdir, f"{tag}.json"), restrict(full, flavor))
            ops.append(
                Op(f"extension/extend/{tag}", ("extend", path), info={"module": path, "full": full_path})
            )
    ctx = _field(F9)
    gwa = construct_gwa("AQ", circ_no_break("2"), WeightPoint(ctx.parse("[0,1]"), ctx.parse("[0,1]")), None, ctx)
    path = _write_module(os.path.join(workdir, "F9-circAQ.json"), gwa)
    twisted = _write_module(os.path.join(workdir, "F9-twisted.full.json"), _construct(F9, TWISTED))
    ops.append(Op("extension/extend/F9-circAQ", ("extend", path), info={"module": path, "full": twisted}))
    return ops


SETUPS = {"grid": build_grid, "structure": build_structure, "extension": build_extension}


def build(workload: str, workdir: str, seed: int) -> List[Op]:
    """Write the workload's input files under workdir and return its ops."""
    os.makedirs(workdir, exist_ok=True)
    return SETUPS[workload](workdir, seed)


def order(ops: Sequence[Op], seed: int) -> List[Op]:
    """A seeded random order in which every op runs after the ops it reads."""
    rng = random.Random(seed)
    pending = {op.id: op for op in ops}
    done: set = set()
    out: List[Op] = []
    while pending:
        ready = sorted(i for i, op in pending.items() if all(a in done for a in op.after))
        pick = pending.pop(rng.choice(ready))
        done.add(pick.id)
        out.append(pick)
    return out
