"""Byte identity of the generic GWA catalog over a seeded sweep of inputs.

``construct_gwa`` is called on every input recorded in ``gwa_pinned.json``:
all five kinds, both flavors, eight fields (QQ, Q(t), Q(zeta5) and five
finite fields), several words, J/Jp sets and windows.  Each input pins the
md5 of the canonical JSON of the module it builds, or "refused" when it
raises ValueError; the error text is not pinned.  Circular kinds are given a
window only off a circular orbit, where they refuse it in any case.

The inputs come from ``cases(SEED)``.  A change that alters a module on
purpose re-records the file with

    PYTHONPATH=src python tests/test_gwa_pinned.py > tests/gwa_pinned.json

and says why in CHANGES.md.
"""

import hashlib
import json
import random
from pathlib import Path

from qdweight.basering import WeightPoint
from qdweight.cli import canonical_json
from qdweight.fields import FieldSpec, make_field
from qdweight.orbits import Subalgebra, breaks, compute_orbit
from qdweight.wmod import circ_no_break, construct_gwa, family1, family2, simple_no_break, with_breaks

PINNED = Path(__file__).parent / "gwa_pinned.json"
SEED = 0
PER_FIELD = 120

FIELDS = [
    FieldSpec(kind="RATIONAL", q="2"),
    FieldSpec(kind="FUNCTION_FIELD"),
    FieldSpec(kind="CYCLOTOMIC", n=5),
    FieldSpec(kind="PRIME_FIELD", p=3, q="2"),
    FieldSpec(kind="PRIME_FIELD", p=5, q="2"),
    FieldSpec(kind="PRIME_FIELD", p=7, q="3"),
    FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="2"),
    FieldSpec(kind="EXT_FIELD", p=2, f=(1, 1, 1), q="[0,1]"),
]
KINDS = ("SIMPLE_NO_BREAK", "WITH_BREAKS", "CIRC_NO_BREAK", "FAMILY1", "FAMILY2")


def _pool(ctx) -> list:
    """Element texts to draw coordinates and wrap factors from."""
    if ctx.is_finite:
        return sorted({ctx.show(x) for x in ctx.all_elements()})
    elems = [ctx.from_int(i) for i in (-2, -1, 0, 1, 3, 5)]
    elems += [ctx.q ** i for i in range(-3, 3)]
    elems += [ctx.from_int(3) / ctx.from_int(2), ctx.q + 1]
    return sorted({ctx.show(x) for x in elems})


def _word(rng, n: int) -> str:
    return "".join(rng.choice("xy") for _ in range(n))


def _case(rng, ctx, pool) -> dict:
    flavor = rng.choice(("AQ", "A1"))
    a, b = rng.choice(pool), rng.choice([t for t in pool if ctx.parse(t)])
    orbit = compute_orbit(WeightPoint(ctx.parse(a), ctx.parse(b)), ctx)
    # mostly a kind that fits the orbit, so that most inputs build a module
    fits = KINDS[2:] if orbit.circular else KINDS[:2]
    name = rng.choice(fits if rng.random() < 0.85 else KINDS)
    if name == "CIRC_NO_BREAK" and orbit.circular and rng.random() < 0.7:
        # draw again toward an orbit with no breaks, which few bases have
        for _ in range(10):
            if not breaks(orbit, Subalgebra(flavor)):
                break
            a, b = rng.choice(pool), rng.choice([t for t in pool if ctx.parse(t)])
            orbit = compute_orbit(WeightPoint(ctx.parse(a), ctx.parse(b)), ctx)
    lo = rng.randint(-5, 3)
    if name == "WITH_BREAKS" and not orbit.circular and rng.random() < 0.8:
        near = [k for k, _ in breaks(orbit, Subalgebra(flavor), (-8, 8))]
        if near:
            lo = rng.choice(near) - rng.randint(0, 3)
    window = [lo, lo + rng.randint(-1, 7)]
    if rng.random() < 0.05:
        window = None
    elif rng.random() < 0.03:
        window = [-70000, 0]
    if orbit.circular and name in ("CIRC_NO_BREAK", "FAMILY1", "FAMILY2"):
        window = None
    kind: dict = {"name": name}
    if name == "WITH_BREAKS":
        span = window if window and not orbit.circular and window[1] - window[0] < 100 else [lo, lo + 6]
        B = [k for k, _ in breaks(orbit, Subalgebra(flavor), tuple(span))] if not orbit.circular else [0]
        Bp = B + [max(B) + 1] if B else [0, 1]
        i = rng.randint(0, len(Bp))
        J = Bp[i : i + rng.randint(0, len(Bp) - i)]
        if rng.random() < 0.1:
            J = sorted(rng.sample(range(-3, 5), rng.randint(1, 3)))
        Jp = [k for k in J if rng.random() < 0.5]
        kind.update(J=J, Jp=Jp)
    elif name == "CIRC_NO_BREAK":
        kind["f"] = rng.choice(pool)
    elif name == "FAMILY1":
        kind.update(j=rng.randint(-2, 4), w=_word(rng, rng.randint(0, 7)))
    elif name == "FAMILY2":
        m = len(breaks(orbit, Subalgebra(flavor))) if orbit.circular else 1
        n = m * rng.randint(1, 3) if rng.random() < 0.85 else rng.randint(0, 5)
        kind.update(w=_word(rng, n), f=rng.choice(pool))
    if name in ("FAMILY1", "FAMILY2") and rng.random() < 0.05:
        kind["w"] += "z"
    return {"field": ctx.spec.to_json(), "flavor": flavor, "kind": kind, "base": [a, b], "window": window}


def cases(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for spec in FIELDS:
        ctx = make_field(spec)
        pool = _pool(ctx)
        out += [_case(rng, ctx, pool) for _ in range(PER_FIELD)]
    return out


def _kind(raw: dict):
    name = raw["name"]
    if name == "SIMPLE_NO_BREAK":
        return simple_no_break()
    if name == "WITH_BREAKS":
        return with_breaks(raw["J"], raw["Jp"])
    if name == "CIRC_NO_BREAK":
        return circ_no_break(raw["f"])
    if name == "FAMILY1":
        return family1(raw["j"], raw["w"])
    return family2(raw["w"], raw["f"])


def digest(case: dict) -> str:
    ctx = make_field(FieldSpec.from_json(case["field"]))
    base = WeightPoint(ctx.parse(case["base"][0]), ctx.parse(case["base"][1]))
    window = tuple(case["window"]) if case["window"] is not None else None
    try:
        V = construct_gwa(case["flavor"], _kind(case["kind"]), base, window, ctx)
    except ValueError:
        return "refused"
    return hashlib.md5(canonical_json(V.to_json()).encode("utf-8")).hexdigest()


def test_gwa_catalog_is_pinned():
    pins = json.loads(PINNED.read_text())
    assert [[case, digest(case)] for case, _ in pins] == pins


def test_sweep_reaches_every_kind_both_ways():
    seen = {(case["kind"]["name"], d == "refused") for case, d in json.loads(PINNED.read_text())}
    assert seen == {(name, refused) for name in KINDS for refused in (False, True)}


if __name__ == "__main__":
    print("[\n" + ",\n".join(canonical_json([case, digest(case)]) for case in cases(SEED)) + "\n]")
