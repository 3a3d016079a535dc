import pytest

from qdweight.fields import FieldSpec, make_field
from qdweight.basering import (
    LaurentPoly,
    WeightPoint,
    alpha_point,
    eval_at,
    lp_qsigma_minus_1,
    lp_tau,
)


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
        # q*sigma - 1 vanishes exactly at b = 1/q
        w = WeightPoint(rat2.from_int(5), rat2.parse("1/2"))
        assert eval_at(lp_qsigma_minus_1(rat2), w) == rat2.zero

    def test_tau_at_zero(self, rat2):
        w = WeightPoint(rat2.zero, rat2.from_int(4))
        assert eval_at(lp_tau(rat2), w) == rat2.zero

    def test_negative_sigma_power(self, rat2):
        # tau * sigma^{-1} at (3, 2) -> 3/2
        f = LaurentPoly(rat2, {(1, -1): rat2.one})
        w = WeightPoint(rat2.from_int(3), rat2.from_int(2))
        assert eval_at(f, w) == rat2.parse("3/2")


def test_negative_tau_degree_rejected(rat2):
    with pytest.raises(ValueError):
        LaurentPoly(rat2, {(-1, 0): rat2.one})
