"""Byte identity of End and decompose further up the CHAIN_ALT size ladder.

For CHAIN_ALT over D with every a_i = 1, the md5 of the canonical JSON of
``endomorphisms`` (and, for the two m=8 modules, of ``decompose``) is
compared with ``hom_ladder_pinned.json``.  The m=8 and F7 q=2 m=16 End
digests were recorded with the Hom solve that assembled one dense row per
operator entry, before the rows were built from sparse L.Z.R terms, so they
pin that both give the same bytes at sizes where assembly, not elimination,
dominated.  The F7 q=2 m=32 and q=3 m=16 digests and the m=16 decompose
digests were recorded with the run solver while it still inverted and
multiplied the X = 1 links, so they pin that skipping those products, and
splitting a summand once per run, leaves the bytes as they were.

Re-record on purpose only, with

    PYTHONPATH=src python tests/test_hom_ladder_pinned.py > tests/hom_ladder_pinned.json

and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from qdweight.analyze import decompose, endomorphisms
from qdweight.cli import canonical_json
from qdweight.families import construct_family
from qdweight.fields import FieldSpec, make_field

PINNED = Path(__file__).parent / "hom_ladder_pinned.json"

# (label, p, q, m, also decompose)
RUNGS = (
    ("F7q3m8", 7, "3", 8, True),
    ("F11q2m8", 11, "2", 8, True),
    ("F7q2m16", 7, "2", 16, True),
    ("F7q3m16", 7, "3", 16, True),
    ("F7q2m32", 7, "2", 32, False),
)


def _md5(obj) -> str:
    return hashlib.md5(canonical_json(obj).encode("utf-8")).hexdigest()


def digests() -> dict:
    out = {}
    for label, p, q, m, split in RUNGS:
        ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=p, q=q))
        V = construct_family({"name": "CHAIN_ALT", "params": {"m": m, "a": ["1"] * m}}, ctx)
        end = endomorphisms(V, "D")
        out[f"{label}/D/end"] = _md5(end.to_json())
        out[f"{label}/D/end_dim"] = end.dim
        if split:
            summands = decompose(V, "D")
            out[f"{label}/D/decompose"] = _md5(summands.to_json())
            out[f"{label}/D/summand_dims"] = [v.total_dim() for v in summands.summands]
    return out


def test_chain_alt_upper_ladder_is_pinned():
    want = json.loads(PINNED.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [key for key in sorted(got) if got[key] != want[key]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
