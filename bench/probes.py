"""Kernel probes: field-element operations and dense elimination.

Inputs come from ``random.Random`` seeded with the workload seed plus the
probe's name, through each context's own ``random_element``:

* ``fields.<KIND>.{add,mul,inv}_ns``: ``PAIRS`` random pairs (nonzero for
  inv), each operation applied once per pair through ``FieldCtx.add``,
  ``mul`` and ``inv``; the median of ``REPEATS`` timings, divided by the
  pair count, loop overhead included.
* ``linalg.rref<n>.<KIND>_s``: one ``Mat.rref`` of a dense random n x n
  matrix.

The field kinds are those of the documented grid: RATIONAL (q = 2),
CYCLOTOMIC (n = 5), FUNCTION_FIELD, PRIME_FIELD (p = 7, q = 3) and
EXT_FIELD (F9 = F3[x]/(x^2 + 1), q = 2).
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict

FIELD_SPECS = {
    "RATIONAL": {"kind": "RATIONAL", "q": "2"},
    "CYCLOTOMIC": {"kind": "CYCLOTOMIC", "n": 5},
    "FUNCTION_FIELD": {"kind": "FUNCTION_FIELD"},
    "PRIME_FIELD": {"kind": "PRIME_FIELD", "p": 7, "q": "3"},
    "EXT_FIELD": {"kind": "EXT_FIELD", "p": 3, "f": [1, 0, 1], "q": "2"},
}
RREF_SIZES = (20, 40, 80)
RREF_KINDS = ("PRIME_FIELD", "EXT_FIELD", "RATIONAL")
PAIRS = 2000
REPEATS = 3

NAMES = tuple(
    [f"fields.{kind}.{op}_ns" for kind in FIELD_SPECS for op in ("add", "mul", "inv")]
    + [f"linalg.rref{n}.{kind}_s" for n in RREF_SIZES for kind in RREF_KINDS]
)


def _ctx(kind: str):
    from qdweight.fields import FieldSpec, make_field

    return make_field(FieldSpec.from_json(FIELD_SPECS[kind]))


def _field_ns(ctx, rng: random.Random) -> Dict[str, float]:
    xs = [ctx.random_element(rng) for _ in range(PAIRS)]
    ys = [ctx.random_element(rng) for _ in range(PAIRS)]
    nonzero = [x for x in xs if x] or [ctx.one]
    add, mul, inv = ctx.add, ctx.mul, ctx.inv
    pairs = list(zip(xs, ys))
    perf = time.perf_counter

    def timed(body) -> float:
        runs = []
        for _ in range(REPEATS):
            t0 = perf()
            body()
            runs.append(perf() - t0)
        return statistics.median(runs)

    def do_add():
        for a, b in pairs:
            add(a, b)

    def do_mul():
        for a, b in pairs:
            mul(a, b)

    def do_inv():
        for a in nonzero:
            inv(a)

    return {
        "add_ns": timed(do_add) / len(pairs) * 1e9,
        "mul_ns": timed(do_mul) / len(pairs) * 1e9,
        "inv_ns": timed(do_inv) / len(nonzero) * 1e9,
    }


def run(seed: int) -> Dict[str, float]:
    from qdweight.linalg import Mat

    out: Dict[str, float] = {}
    for kind in FIELD_SPECS:
        got = _field_ns(_ctx(kind), random.Random(f"{seed}/fields/{kind}"))
        for op, ns in got.items():
            out[f"fields.{kind}.{op}"] = ns
    for n in RREF_SIZES:
        for kind in RREF_KINDS:
            ctx = _ctx(kind)
            rng = random.Random(f"{seed}/rref/{kind}/{n}")
            m = Mat(ctx, [[ctx.random_element(rng) for _ in range(n)] for _ in range(n)])
            t0 = time.perf_counter()
            m.rref()
            out[f"linalg.rref{n}.{kind}_s"] = time.perf_counter() - t0
    assert tuple(out) == NAMES
    return out
