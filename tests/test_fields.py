import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdweight import fields as fields_module
from qdweight.fields import (
    FieldSpec,
    _padd,
    _pdivmod_modp,
    _pmul,
    _trim,
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


# ---------------------------------------------------------------------------
# the finite-field order cap


def test_prime_field_over_the_cap_is_rejected():
    with pytest.raises(ValueError) as exc:
        make_field(FieldSpec(kind="PRIME_FIELD", p=65537, q="3"))
    assert str(exc.value) == "field order 65537 is over the limit of 65536"


def test_prime_field_at_the_cap_builds():
    ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=65521, q="17"))
    assert ctx.order == 65521
    assert ctx.q * ctx.q.inverse() == ctx.one


def test_prime_q_order_is_the_walked_order():
    for p in (n for n in range(2, 102) if fields_module._is_prime(n)):
        for q in range(1, p):
            walked, acc = 1, q
            while acc != 1:
                acc = acc * q % p
                walked += 1
            assert q_order(make_field(FieldSpec(kind="PRIME_FIELD", p=p, q=str(q)))) == walked, (p, q)


def test_prime_q_order_at_the_cap_is_closed_form():
    # 17 generates the units mod 65521, the largest prime under the cap
    assert q_order(make_field(FieldSpec(kind="PRIME_FIELD", p=65521, q="17"))) == 65520


def test_ext_field_over_the_cap_is_rejected():
    with pytest.raises(ValueError) as exc:
        make_field(FieldSpec(kind="EXT_FIELD", p=257, f=(3, 0, 1), q="2"))
    assert str(exc.value) == "field order 66049 is over the limit of 65536"


def test_cap_comes_before_the_primality_test():
    # trial division up to sqrt(p) would not end for these
    big = 10**40 + 1
    for spec in (
        FieldSpec(kind="PRIME_FIELD", p=big, q="3"),
        FieldSpec(kind="EXT_FIELD", p=big, f=(1, 0, 1), q="2"),
    ):
        with pytest.raises(ValueError, match="over the limit of 65536"):
            make_field(spec)


@pytest.mark.parametrize(
    "spec, error",
    [
        (FieldSpec(kind="EXT_FIELD", p=4, f=(1,) + (0,) * 8 + (1,), q="1"), "4 is not prime"),
        (FieldSpec(kind="EXT_FIELD", p=0, f=(1, 0, 1), q="1"), "0 is not prime"),
        (FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 2), q="1"), "defining polynomial must be monic"),
        (FieldSpec(kind="EXT_FIELD", p=3, f=(1, 3), q="1"), "defining polynomial must have degree >= 2"),
        (FieldSpec(kind="EXT_FIELD", p=2, f=(1, 0, 1), q="1"), "defining polynomial [1, 0, 1] is reducible mod 2"),
        (FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="[3,0,3]"), "q must be nonzero"),
        (FieldSpec(kind="PRIME_FIELD", p=65535, q="1"), "65535 is not prime"),
    ],
)
def test_error_order_under_the_cap(spec, error):
    with pytest.raises(ValueError) as exc:
        make_field(spec)
    assert str(exc.value) == error


# ---------------------------------------------------------------------------
# table-coded GF(p^k) against polynomial arithmetic mod f

# (p, f): F9 = x^2 + 1 over F3 and F16 = x^4 + x^3 + x^2 + x + 1 over F2 are
# fields in which t is not primitive (orders 4 and 5)
EXT_FIELDS = {
    "F4": (2, (1, 1, 1)),
    "F8": (2, (1, 1, 0, 1)),
    "F9": (3, (1, 0, 1)),
    "F16": (2, (1, 1, 1, 1, 1)),
    "F25": (5, (2, 0, 1)),
    "F27": (3, (1, 2, 0, 1)),
}
FIELDS_PINNED = json.loads((Path(__file__).parent / "fields_pinned.json").read_text())


def ext_field(name, q="1"):
    p, f = EXT_FIELDS[name]
    return make_field(FieldSpec(kind="EXT_FIELD", p=p, f=f, q=q))


def coeffs(x):
    """The residue of x as a coefficient tuple, read from its text."""
    return _trim(tuple(int(c) for c in str(x)[1:-1].split(",")))


def base_p_texts(p, k):
    """Element texts in the base-p index order the polynomial encoding used."""
    out = []
    for idx in range(p**k):
        digits = [(idx // p**i) % p for i in range(k)]
        out.append("[" + ",".join(map(str, _trim(digits))) + "]" if idx else "[0]")
    return out


@pytest.mark.parametrize("name", sorted(EXT_FIELDS))
def test_ext_arithmetic_agrees_with_polynomials_mod_f(name):
    p, f = EXT_FIELDS[name]
    ctx = ext_field(name)
    els = list(ctx.all_elements())
    assert len(els) == ctx.order == p ** (len(f) - 1)
    for a in els:
        ca = coeffs(a)
        assert coeffs(-a) == _trim(tuple(-c % p for c in ca))
        if a:
            assert _pdivmod_modp(_pmul(ca, coeffs(a.inverse())), f, p)[1] == (1,)
        for b in els:
            cb = coeffs(b)
            n = max(len(ca), len(cb))
            ca_, cb_ = ca + (0,) * (n - len(ca)), cb + (0,) * (n - len(cb))
            assert coeffs(a + b) == _trim(tuple((x + y) % p for x, y in zip(ca_, cb_)))
            assert coeffs(a - b) == _trim(tuple((x - y) % p for x, y in zip(ca_, cb_)))
            assert coeffs(a * b) == _pdivmod_modp(_pmul(ca, cb), f, p)[1]


@pytest.mark.parametrize("name", sorted(EXT_FIELDS))
def test_ext_elements_round_trip_in_base_p_order(name):
    p, f = EXT_FIELDS[name]
    ctx = ext_field(name)
    assert [str(a) for a in ctx.all_elements()] == base_p_texts(p, len(f) - 1)
    for a in ctx.all_elements():
        assert ctx.parse(str(a)) == a
        assert ctx.parse(str(a)) is a  # one shared element per value


def test_ext_parse_is_pinned():
    ctx = ext_field("F9")
    assert {t: str(ctx.parse(t)) for t in FIELDS_PINNED["parse_f9"]} == FIELDS_PINNED["parse_f9"]


@pytest.mark.parametrize("name", sorted(EXT_FIELDS))
def test_ext_random_elements_are_pinned(name):
    import random

    ctx = ext_field(name)
    rng = random.Random(0)
    assert [str(ctx.random_element(rng)) for _ in range(20)] == FIELDS_PINNED["random_20"][name]


@pytest.mark.parametrize("name", ["F4", "F9"])
def test_ext_q_order_is_pinned(name):
    want = FIELDS_PINNED["q_order"][name]
    assert {str(a): q_order(ext_field(name, str(a))) for a in ext_field(name).all_elements() if a} == want


def test_ext_arithmetic_never_divides_polynomials(monkeypatch):
    import random

    ctx = ext_field("F9", "2")

    def forbidden(*args):
        raise AssertionError("polynomial division after construction")

    monkeypatch.setattr(fields_module, "_pdivmod_modp", forbidden)
    els = list(ctx.all_elements())
    for a in els:
        assert ctx.parse(str(a)) == a
        if a:
            assert a * a.inverse() == ctx.one and a / a == ctx.one
        for b in els:
            assert (a + b) - b == a and -(a * b) == (-a) * b
    assert ctx.q ** 4 == ctx.one and q_order(ctx) == 2
    assert ctx.from_int(7) == ctx.one and ctx.random_element(random.Random(0)) in els
    with pytest.raises(AssertionError):
        ctx.parse("[0,0,1]")  # an unreduced residue still needs a division


def test_large_ext_field_agrees_with_polynomials_mod_f():
    # GF(251^2), spot checks of its tables against products and quotients
    # of residue polynomials
    p, f = 251, (1, 0, 1)
    ctx = make_field(FieldSpec(kind="EXT_FIELD", p=p, f=f, q="[3,1]"))
    assert sorted(ctx._exp[: ctx._n]) == list(range(1, p * p))
    rng = random.Random(0)
    els = [ctx.random_element(rng) for _ in range(400)] + [ctx.zero, ctx.one, ctx.q]
    for a, b in zip(els, els[1:] + els[:1]):
        ca, cb = coeffs(a), coeffs(b)
        assert coeffs(a * b) == _pdivmod_modp(_pmul(ca, cb), f, p)[1]
        n = max(len(ca), len(cb))
        ca_, cb_ = ca + (0,) * (n - len(ca)), cb + (0,) * (n - len(cb))
        assert coeffs(a + b) == _trim(tuple((x + y) % p for x, y in zip(ca_, cb_)))
        if a:
            assert _pdivmod_modp(_pmul(ca, coeffs(a.inverse())), f, p)[1] == (1,)
    order = q_order(ctx)
    assert ctx.q ** order == ctx.one
    assert all(ctx.q ** (order // r) != ctx.one for r in fields_module._prime_factors(order))


@pytest.mark.parametrize("spec", [F9_Q2, F4_QT, FieldSpec(kind="PRIME_FIELD", p=5, q="2")], ids=str)
def test_finite_arithmetic_returns_shared_elements(spec):
    ctx = make_field(spec)
    els = list(ctx.all_elements())
    for a in els:
        for b in els:
            assert any(a + b is x for x in els) and any(a * b is x for x in els)


def test_function_field_fast_paths_match_the_general_formula():
    # _add and _mul skip _normalize for a zero operand and for two
    # polynomials; the results must be what the general formula normalizes to
    ctx = make_field(FieldSpec(kind="FUNCTION_FIELD"))
    rng = random.Random(0)
    texts = ["0", "1", "-3/2", "[0,1]", "[1,0,-2]", "[1/3,2]", "[1]|[1,1]", "[0,2]|[3,0,1]", "[1,1]|[-1,1]"]
    els = [ctx.parse(t) for t in texts]
    els += [ctx.random_element(rng) for _ in range(12)]
    els += [ctx.from_int(rng.randint(-5, 5)) for _ in range(4)]
    els += [ctx.el((_trim(tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))), (Fraction(1),))) for _ in range(4)]
    normalize = fields_module.FunctionField._normalize
    for a in els:
        for b in els:
            (n1, d1), (n2, d2) = a.val, b.val
            for fast, general in (
                (ctx._add(a.val, b.val), normalize(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))),
                (ctx._mul(a.val, b.val), normalize(_pmul(n1, n2), _pmul(d1, d2))),
            ):
                assert fast == general
                assert ctx.show(ctx.el(fast)) == ctx.show(ctx.el(general))
