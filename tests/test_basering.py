import os
import subprocess
import sys
import textwrap

import pytest

import qdweight
from qdweight.fields import FieldSpec, make_field
from qdweight.basering import PRODUCTS, WeightPoint, alpha_point, eval_at


@pytest.fixture
def rat2():
    return make_field(FieldSpec(kind="RATIONAL", q="2"))


@pytest.fixture
def f3():
    return make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))


class TestWeightPoint:
    def test_b_nonzero(self, rat2):
        with pytest.raises(ValueError):
            WeightPoint(rat2.zero, rat2.zero)

    def test_alpha_point_formula(self, rat2):
        # (0,1) -> (1,2) under alpha, with q=2
        w = WeightPoint(rat2.from_int(0), rat2.one)
        img = alpha_point(w, 1)
        assert img.a == rat2.one and img.b == rat2.from_int(2)

    def test_alpha_identity(self, rat2):
        w = WeightPoint(rat2.from_int(5), rat2.from_int(3))
        assert alpha_point(w, 0) == w

    def test_alpha_period_mod_p(self, f3):
        # 6 = lcm(3, ord(2)) returns to start over F3
        w = WeightPoint(f3.one, f3.one)
        assert alpha_point(w, 6) == w
        assert alpha_point(w, 3) != w

    def test_alpha_inverse(self, rat2):
        w = WeightPoint(rat2.from_int(7), rat2.from_int(5))
        for k in (-3, -1, 2, 4):
            assert alpha_point(alpha_point(w, k), -k) == w


class TestEval:
    def test_qsigma_at_break(self, rat2):
        # Y1X = q*sigma - 1 vanishes exactly at b = 1/q
        w = WeightPoint(rat2.from_int(5), rat2.parse("1/2"))
        assert eval_at(PRODUCTS["Y1"].tx, w) == rat2.zero
        assert eval_at(PRODUCTS["Y1"].tx, WeightPoint(rat2.from_int(5), rat2.one)) == rat2.one

    def test_tau_at_zero(self, rat2):
        # YX = tau vanishes exactly at a = 0
        w = WeightPoint(rat2.zero, rat2.from_int(4))
        assert eval_at(PRODUCTS["Y"].tx, w) == rat2.zero
        assert eval_at(PRODUCTS["Y"].tx, WeightPoint(rat2.from_int(3), rat2.from_int(4))) == rat2.from_int(3)


def test_reimport_frees_the_replaced_package():
    # typing caches a subscripted alias with its arguments, so an alias over
    # the package's classes made at import time would keep every copy of the
    # package that a re-import replaces alive
    code = textwrap.dedent(
        """
        import contextlib, gc, importlib, io, sys, weakref
        cli = importlib.import_module("qdweight.cli")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["suite", "--seed", "0"])
        old = weakref.ref(sys.modules["qdweight.fields"].FieldCtx)
        del cli
        for name in [n for n in sys.modules if n == "qdweight" or n.startswith("qdweight.")]:
            del sys.modules[name]
        importlib.import_module("qdweight.cli")
        gc.collect()
        sys.exit(0 if old() is None else 1)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdweight.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
