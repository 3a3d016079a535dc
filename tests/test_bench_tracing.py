"""Smoke test of the benchmark's per-layer tracer against the library.

``bench/tracing.py`` patches library functions by name (``Mat.rref``,
``Mat.solve``, ``Mat.__mul__``, ``Mat.pow``, ``analyze.fitting_power``,
``extend.extend_to_D`` and more).  A rename in the library would break the
traced benchmark silently, so install the tracer, run one extension, one
endomorphism solve and one isomorphism test through it, and uninstall it
again; and run a decompose and an indecomposability check through it, whose
Fitting powers it counts.
"""

import sys
from pathlib import Path

import pytest

import qdweight.cli  # noqa: F401  (the tracer patches every qdweight module)
from qdweight import analyze, extend
from qdweight.basering import WeightPoint
from qdweight.families import construct_family
from qdweight.fields import FieldSpec, make_field
from qdweight.linalg import Mat
from qdweight.wmod import circ_no_break, construct_gwa

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing

        yield tracing
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_installs_runs_and_uninstalls(tracing):
    F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=[1, 0, 1], q="2"))
    V = construct_gwa("AQ", circ_no_break("2"), WeightPoint(F9.parse("[0,1]"), F9.parse("[0,1]")), None, F9)
    W = construct_family({"name": "CHAIN_ALT", "params": {"m": 2, "a": ["1", "1"]}}, F9)
    originals = (Mat.__dict__["rref"], Mat.__dict__["solve"], extend.extend_to_D, analyze.endomorphisms)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert extend.extend_to_D is not originals[2]
        ext = extend.extend_to_D(V)
        end = analyze.endomorphisms(W, "D")
        # the sweep tests each candidate's invertibility by its rank
        iso = analyze.are_isomorphic(W, W, "D")
    finally:
        tracer.uninstall()

    assert (Mat.__dict__["rref"], Mat.__dict__["solve"], extend.extend_to_D, analyze.endomorphisms) == originals
    assert ext.kind == "UNIQUE"
    assert iso.is_yes
    metrics = tracer.metrics()
    assert tuple(metrics) == tracing.METRICS
    assert metrics["extend.calls"] == 1
    assert metrics["analyze.end_dim"] == end.dim >= 1
    assert metrics["linalg.rref_calls"] >= 1
    assert metrics["verify.instances"] > 0
    assert metrics["fields.ops"] > 0


def test_tracer_counts_a_decompose(tracing):
    # fitting_power is counted where analyze looks it up: the split sweep's
    # projectors and the regular representation's screen
    F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=[1, 0, 1], q="2"))
    V = construct_family({"name": "CHAIN_ALT", "params": {"m": 4, "a": ["1"] * 4}}, F9)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        dec = analyze.decompose(V, "AQ")
        verdict = analyze.is_indecomposable(V, "D")
    finally:
        tracer.uninstall()

    assert dec.complete and dec.count >= 2
    assert verdict.is_no
    metrics = tracer.metrics()
    assert metrics["analyze.fitting_calls"] == 6
    assert metrics["analyze.end_dim"] == 10
