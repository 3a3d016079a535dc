"""Byte identity of End, decompose and iso where the Hom solve transports.

Every CHAIN_ALT pin has X = 1 off its junction, which sits on the orbit's
last link, so its runs need no transport and never cross that link.  These
three F9 modules do both:

* ``junction``: wmod.junction_module on the orbit of length 6 with its
  junction at the interior offset 2 (X_2 = 0), so a run of invertible links
  can reach across the last link, from offset 5 to offset 0;
* ``gauge``: a seeded gauge copy of it, each weight space moved by a random
  invertible block, so X != 1 on every link but the junction;
* ``twisted``: the circular VQ_F_B_A, every link invertible.

For each, under D, AQ and A1, the md5 of the canonical JSON of
``endomorphisms``, of ``decompose`` and of ``are_isomorphic`` against the
module's own seeded gauge copy is compared with ``hom_transports_pinned.json``.
The digests were recorded with runs rooted at their first offset, before
each run was rooted at its top offset and cut at the last link.

Re-record on purpose only, with

    PYTHONPATH=src python tests/test_hom_transports_pinned.py > tests/hom_transports_pinned.json

and say why in CHANGES.md.
"""

import hashlib
import json
import random
from pathlib import Path

from qdweight.analyze import are_isomorphic, decompose, endomorphisms
from qdweight.basering import WeightPoint
from qdweight.cli import canonical_json
from qdweight.families import construct_family
from qdweight.fields import FieldSpec, make_field
from qdweight.linalg import Mat
from qdweight.orbits import compute_orbit
from qdweight.wmod import junction_module

PINNED = Path(__file__).parent / "hom_transports_pinned.json"

F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="2"))
ALGEBRAS = ("D", "AQ", "A1")


def _mat(rows):
    return Mat(F9, [[F9.parse(c) for c in row] for row in rows])


def gauge(V, seed):
    """V moved by a seeded random invertible block per offset."""
    rng = random.Random(seed)
    g = {}
    for k in V.offsets():
        while k not in g or not g[k].is_invertible():
            g[k] = Mat(F9, [[F9.random_element(rng) for _ in range(V.dim(k))] for _ in range(V.dim(k))])
    ops = {
        name: {k: g[V.op_target(name, k)] * V.op(name, k) * g[k].inverse() for k in V.op_sources(name)}
        for name in V.ops
    }
    return V.with_ops(ops)


def modules():
    t = F9.parse("[0,1]")
    orbit = compute_orbit(WeightPoint(t, t), F9)
    labels = {k: ("e1", "e2") for k in range(orbit.length)}
    y, y1 = _mat([["1", "1"], ["0", "1"]]), _mat([["2", "0"], ["0", "1"]])
    junction = junction_module(F9, orbit, None, labels, 2, Mat.zeros(F9, 2, 2), y, y1)
    twisted = construct_family({"name": "VQ_F_B_A", "params": {"f": "2", "b": "[0,1]", "a": "[0,1]"}}, F9)
    return {"junction": junction, "gauge": gauge(junction, 7), "twisted": twisted}


def _md5(obj) -> str:
    return hashlib.md5(canonical_json(obj).encode("utf-8")).hexdigest()


def digests() -> dict:
    out = {}
    for label, V in modules().items():
        W = gauge(V, 11)
        for algebra in ALGEBRAS:
            out[f"{label}/{algebra}/end"] = _md5(endomorphisms(V, algebra).to_json())
            out[f"{label}/{algebra}/decompose"] = _md5(decompose(V, algebra).to_json())
            out[f"{label}/{algebra}/iso"] = _md5(are_isomorphic(V, W, algebra).to_json())
    return out


def test_modules_transport_across_the_last_link():
    got = modules()
    r = got["junction"].orbit.length
    one = Mat.identity(F9, 2)
    assert [k for k in range(r) if got["junction"].op("X", k) != one] == [2]
    assert all(got["gauge"].op("X", k) != one for k in range(r))
    assert all(got["twisted"].op("X", k).is_invertible() for k in range(r))


def test_transports_are_pinned():
    want = json.loads(PINNED.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [key for key in sorted(got) if got[key] != want[key]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
