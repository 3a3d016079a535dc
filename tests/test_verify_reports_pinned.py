"""Byte identity of relation reports against recorded digests.

The md5 of ``canonical_json(check_relations(V, algebra).to_json())`` is
recorded in ``verify_reports_pinned.json`` for

* every module of ``cli.grid_scenarios()`` over D, AQ and A1, and the md5
  of the list of all those reports in scenario-major order;
* every input module of the ``extension`` benchmark workload over the
  flavour it carries, and, when it extends, its extension over D.

A change that alters a report on purpose re-records the file with

    PYTHONPATH=src python tests/test_verify_reports_pinned.py > tests/verify_reports_pinned.json

and says why in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from qdweight.cli import build_scenario_module, canonical_json, grid_scenarios, load_module
from qdweight.extend import extend_to_D
from qdweight.verify import check_relations

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).parent / "verify_reports_pinned.json"
SEED = 3
ALGEBRAS = ("D", "AQ", "A1")


def _md5(report) -> str:
    return hashlib.md5(canonical_json(report).encode("utf-8")).hexdigest()


def grid_digests() -> dict:
    out, flat = {}, []
    for i, sc in enumerate(grid_scenarios()):
        V = build_scenario_module(sc)
        for algebra in ALGEBRAS:
            report = check_relations(V, algebra).to_json()
            flat.append(report)
            out[f"{i:02d}-{sc['family']['name']}-{sc['field']['kind']}/{algebra}"] = _md5(report)
    out["all"] = _md5(flat)
    return out


def extension_digests() -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for op in workloads.build("extension", workdir, SEED):
            V = load_module(op.info["module"])
            flavor = "AQ" if V.has_op("Y1") else "A1"
            tag = op.id.rsplit("/", 1)[1]
            out[f"{tag}/{flavor}"] = _md5(check_relations(V, flavor).to_json())
            extended = extend_to_D(V).representative
            if extended is not None:
                out[f"{tag}/D-extended"] = _md5(check_relations(extended, "D").to_json())
    return out


def digests() -> dict:
    return {"grid": grid_digests(), "extension": extension_digests()}


def test_grid_reports_are_pinned():
    want = json.loads(PINNED.read_text())["grid"]
    got = grid_digests()
    assert sorted(got) == sorted(want)
    assert [key for key in sorted(got) if got[key] != want[key]] == []


def test_extension_reports_are_pinned():
    want = json.loads(PINNED.read_text())["extension"]
    got = extension_digests()
    assert sorted(got) == sorted(want)
    assert [key for key in sorted(got) if got[key] != want[key]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
