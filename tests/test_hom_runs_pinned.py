"""Byte identity of End and decompose on the CHAIN_ALT m=4 size ladder.

For CHAIN_ALT m=4 (every a_i = 1) over F7, F5 and F4, under D, AQ and A1,
the md5 of the canonical JSON of ``endomorphisms`` and of ``decompose`` is
compared with ``hom_runs_pinned.json``.  The digests were recorded with the
dense graded Hom solve, before it was replaced by the solve on runs of
invertible X links, so they pin that both give the same bytes.

Re-record on purpose only, with

    PYTHONPATH=src python tests/test_hom_runs_pinned.py > tests/hom_runs_pinned.json

and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from qdweight.analyze import decompose, endomorphisms
from qdweight.cli import canonical_json
from qdweight.families import construct_family
from qdweight.fields import FieldSpec, make_field

PINNED = Path(__file__).parent / "hom_runs_pinned.json"

FIELDS = {
    "F7": FieldSpec(kind="PRIME_FIELD", p=7, q="2"),
    "F5": FieldSpec(kind="PRIME_FIELD", p=5, q="2"),
    "F4": FieldSpec(kind="EXT_FIELD", p=2, f=(1, 1, 1), q="[0,1]"),
}
ALGEBRAS = ("D", "AQ", "A1")


def _md5(obj) -> str:
    return hashlib.md5(canonical_json(obj).encode("utf-8")).hexdigest()


def digests() -> dict:
    out = {}
    for fname, spec in FIELDS.items():
        V = construct_family({"name": "CHAIN_ALT", "params": {"m": 4, "a": ["1"] * 4}}, make_field(spec))
        for algebra in ALGEBRAS:
            out[f"{fname}/{algebra}/end"] = _md5(endomorphisms(V, algebra).to_json())
            out[f"{fname}/{algebra}/decompose"] = _md5(decompose(V, algebra).to_json())
    return out


def test_chain_alt_ladder_is_pinned():
    want = json.loads(PINNED.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [key for key in sorted(got) if got[key] != want[key]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
