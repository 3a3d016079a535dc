from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdweight.fields import (
    FieldSpec,
    make_field,
    q_order,
    characteristic,
    _cyclotomic,
)


RATIONAL_Q2 = FieldSpec(kind="RATIONAL", q="2")
F9_Q2 = FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="2")
F4_QT = FieldSpec(kind="EXT_FIELD", p=2, f=(1, 1, 1), q="[0,1]")


def all_specs():
    return [
        RATIONAL_Q2,
        FieldSpec(kind="RATIONAL", q="-1"),
        FieldSpec(kind="CYCLOTOMIC", n=5),
        FieldSpec(kind="CYCLOTOMIC", n=1),
        FieldSpec(kind="FUNCTION_FIELD"),
        FieldSpec(kind="PRIME_FIELD", p=3, q="2"),
        FieldSpec(kind="PRIME_FIELD", p=5, q="1"),
        F9_Q2,
        F4_QT,
    ]


class TestConstruction:
    def test_prime_field_characteristic(self):
        ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))
        assert characteristic(ctx) == 3

    def test_ext_field_irreducible_ok(self):
        # t^2 + 1 has no root mod 3, so the field is GF(9); t has order 4
        ctx = make_field(F9_Q2.to_json() and F9_Q2)
        assert characteristic(ctx) == 3
        t = ctx.parse("[0,1]")
        order = 1
        acc = t
        while acc != ctx.one:
            acc = acc * t
            order += 1
        assert order == 4

    def test_ext_field_reducible_rejected(self):
        # t^2 + 1 = (t+1)^2 mod 2
        with pytest.raises(ValueError):
            make_field(FieldSpec(kind="EXT_FIELD", p=2, f=(1, 0, 1), q="[0,1]"))

    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            make_field(FieldSpec(kind="RATIONAL", q="0"))
        with pytest.raises(ValueError):
            make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="0"))
        with pytest.raises(ValueError):
            make_field(FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="0"))

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            make_field(FieldSpec(kind="PRIME_FIELD", p=6, q="5"))

    def test_cyclotomic_zero_order_rejected(self):
        with pytest.raises(ValueError):
            make_field(FieldSpec(kind="CYCLOTOMIC", n=0))

    def test_degree_cap(self):
        f = (1,) + (0,) * 8 + (1,)  # degree 9
        with pytest.raises(ValueError):
            make_field(FieldSpec(kind="EXT_FIELD", p=2, f=f, q="[0,1]"))


class TestQOrder:
    def test_prime_field(self):
        assert q_order(make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))) == 2

    def test_function_field(self):
        assert q_order(make_field(FieldSpec(kind="FUNCTION_FIELD"))) is None

    def test_cyclotomic(self):
        assert q_order(make_field(FieldSpec(kind="CYCLOTOMIC", n=5))) == 5

    def test_rational(self):
        assert q_order(make_field(FieldSpec(kind="RATIONAL", q="2"))) is None
        assert q_order(make_field(FieldSpec(kind="RATIONAL", q="1"))) == 1
        assert q_order(make_field(FieldSpec(kind="RATIONAL", q="-1"))) == 2

    def test_f9_q_t(self):
        ctx = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="[0,1]"))
        assert q_order(ctx) == 4

    def test_f4(self):
        assert q_order(make_field(F4_QT)) == 3

    def test_cyclotomic_q_order_is_exact(self):
        # q^n = 1 but no proper divisor of n gives 1
        for n in (2, 3, 4, 5, 6):
            ctx = make_field(FieldSpec(kind="CYCLOTOMIC", n=n))
            assert ctx.q ** n == ctx.one
            for d in range(1, n):
                if n % d == 0:
                    assert ctx.q ** d != ctx.one

    def test_order_divides_group_order(self):
        for spec in (F9_Q2, F4_QT):
            ctx = make_field(spec)
            assert (ctx.order - 1) % q_order(ctx) == 0


class TestCyclotomicPolynomials:
    def test_small_cases(self):
        assert _cyclotomic(1) == (-1, 1)
        assert _cyclotomic(2) == (1, 1)
        assert _cyclotomic(3) == (1, 1, 1)
        assert _cyclotomic(4) == (1, 0, 1)
        assert _cyclotomic(5) == (1, 1, 1, 1, 1)
        assert _cyclotomic(6) == (1, -1, 1)
        assert _cyclotomic(12) == (1, 0, -1, 0, 1)


class TestEncodings:
    def test_rational_forms(self):
        ctx = make_field(RATIONAL_Q2)
        assert str(ctx.parse("3")) == "3"
        assert str(ctx.parse("6/4")) == "3/2"
        assert str(ctx.parse("-6/4")) == "-3/2"
        assert str(ctx.zero) == "0"

    def test_cyclotomic_reduction(self):
        ctx = make_field(FieldSpec(kind="CYCLOTOMIC", n=4))
        # t^2 = -1 mod t^2+1
        assert str(ctx.q * ctx.q) == "[-1]"
        assert str(ctx.parse("[0,0,1]")) == "[-1]"

    def test_function_field_normalization(self):
        ctx = make_field(FieldSpec(kind="FUNCTION_FIELD"))
        x = ctx.parse("[0,2]|[2]")  # 2t/2 -> t
        assert str(x) == "[0,1]|[1]"
        y = ctx.parse("[0,0,1]|[0,1]")  # t^2/t -> t
        assert x == y
        # denominator made monic
        z = ctx.parse("[1]|[0,2]")
        assert str(z) == "[1/2]|[0,1]"

    def test_ext_field_reduction(self):
        ctx = make_field(F9_Q2)
        t = ctx.parse("[0,1]")
        assert str(t * t) == "[2]"  # t^2 = -1 = 2

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.n or s.p or ''}")
    def test_roundtrip_random(self, spec):
        import random

        ctx = make_field(spec)
        rng = random.Random(7)
        for _ in range(25):
            x = ctx.random_element(rng)
            assert ctx.parse(str(x)) == x

    def test_spec_json_roundtrip(self):
        for spec in all_specs():
            assert FieldSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.n or s.p or ''}")
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_field_axioms(spec, seed):
    import random

    ctx = make_field(spec)
    rng = random.Random(seed)
    a = ctx.random_element(rng)
    b = ctx.random_element(rng)
    c = ctx.random_element(rng)

    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero == a
    assert a * ctx.one == a
    assert a + (-a) == ctx.zero
    if a != ctx.zero:
        assert a * a.inverse() == ctx.one
        assert ctx.parse(str(a.inverse())) == a.inverse()


def test_zero_inverse_raises():
    ctx = make_field(RATIONAL_Q2)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


def test_int_coercion():
    ctx = make_field(F9_Q2)
    assert ctx.q + 1 == ctx.from_int(0)  # 2 + 1 = 0 mod 3
    assert 2 * ctx.one == ctx.q
    assert ctx.one / 2 == ctx.q  # 1/2 = 2 mod 3
    assert ctx.q ** -1 == ctx.q  # 2 is its own inverse


def test_hashable_and_dict_keys():
    ctx = make_field(F9_Q2)
    seen = {x: str(x) for x in ctx.all_elements()}
    assert len(seen) == 9


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.n or s.p or ''}")
def test_equal_elements_from_separate_contexts_hash_equal(spec):
    left, right = make_field(spec), make_field(spec)
    assert left is not right
    for a, b in [(left.zero, right.zero), (left.one, right.one), (left.q, right.q), (left.q + 3, right.q + 3)]:
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.n or s.p or ''}")
def test_elements_never_equal_plain_ints(spec):
    # in characteristic p the int 3 would have to equal both 3 and 3 + p,
    # so no hash could agree with such an equality
    ctx = make_field(spec)
    three = ctx.from_int(3)
    assert three != 3 and 3 != three
    assert ctx.zero != 0 and ctx.one != 1
    assert len({three, 3}) == 2
    if ctx.characteristic:
        assert three == ctx.from_int(3 + ctx.characteristic)
    assert three + 1 == ctx.from_int(4) and 3 * ctx.one == three
