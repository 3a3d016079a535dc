import random
from math import lcm

import pytest

from qdweight import orbits as orbits_module
from qdweight.fields import FieldSpec, make_field
from qdweight.basering import WeightPoint, alpha_point
from qdweight.orbits import Subalgebra, breaks, compute_orbit, j_index

# the finite fields of the tests and the benchmark, plus PRIME_FIELD p=11
# q=2 (orbit length 110, the longest on the size ladder)
FINITE_SPECS = [
    FieldSpec(kind="PRIME_FIELD", p=3, q="2"),
    FieldSpec(kind="EXT_FIELD", p=2, f=(1, 1, 1), q="[0,1]"),
    FieldSpec(kind="PRIME_FIELD", p=5, q="1"),
    FieldSpec(kind="PRIME_FIELD", p=5, q="2"),
    FieldSpec(kind="PRIME_FIELD", p=7, q="3"),
    FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="2"),
    FieldSpec(kind="EXT_FIELD", p=5, f=(2, 0, 1), q="2"),
    FieldSpec(kind="PRIME_FIELD", p=11, q="2"),
]
INFINITE_SPECS = [
    FieldSpec(kind="RATIONAL", q="2"),
    FieldSpec(kind="RATIONAL", q="-1"),
    FieldSpec(kind="CYCLOTOMIC", n=5),
    FieldSpec(kind="FUNCTION_FIELD"),
]


@pytest.fixture
def rat2():
    return make_field(FieldSpec(kind="RATIONAL", q="2"))


@pytest.fixture
def f3():
    return make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))


class TestComputeOrbit:
    def test_char_zero_infinite(self, rat2):
        orb = compute_orbit(WeightPoint(rat2.zero, rat2.one), rat2)
        assert not orb.circular

    def test_f3_circular_six(self, f3):
        orb = compute_orbit(WeightPoint(f3.one, f3.one), f3)
        assert orb.circular and orb.length == 6

    def test_f5_q1_circular_five(self):
        ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="1"))
        orb = compute_orbit(WeightPoint(ctx.zero, ctx.one), ctx)
        assert orb.length == 5

    def test_function_field_infinite(self):
        ctx = make_field(FieldSpec(kind="FUNCTION_FIELD"))
        orb = compute_orbit(WeightPoint(ctx.zero, ctx.one), ctx)
        assert not orb.circular

    def test_minimality(self):
        # walk alpha to the first return: it comes at exactly lcm(p, ord q),
        # the closed-form length, from every base
        for spec in FINITE_SPECS:
            ctx = make_field(spec)
            els = list(ctx.all_elements())
            want = lcm(ctx.characteristic, ctx.q_order())
            for a, b in ((els[0], els[1]), (els[1], els[-1]), (els[-1], els[len(els) // 2])):
                base = WeightPoint(a, b)
                orb = compute_orbit(base, ctx)
                assert orb.circular == ctx.is_finite, spec
                r = 1
                while alpha_point(base, r) != base:
                    r += 1
                assert r == want == orb.length, (spec, str(base))
        for spec in INFINITE_SPECS:
            ctx = make_field(spec)
            orb = compute_orbit(WeightPoint(ctx.zero, ctx.one), ctx)
            assert orb.circular == ctx.is_finite, spec

    def test_long_orbit_under_the_cap(self):
        # q = 1 gives length p, and 65521 is the largest prime under the cap
        # (the orbit-length caps of p=1009 q=11 and p=65521 q=17 are in test_cli)
        ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=65521, q="1"))
        assert compute_orbit(WeightPoint(ctx.one, ctx.one), ctx).length == 65521


class TestBreaks:
    def test_aq_break_infinite(self, rat2):
        # sigma-coordinate hits 1/2 = q^{-1} at offset -1 from (0,1)
        orb = compute_orbit(WeightPoint(rat2.zero, rat2.one), rat2)
        got = breaks(orb, Subalgebra.AQ, window=(-5, 5))
        assert len(got) == 1
        k, pt = got[0]
        assert k == -1
        assert pt.a == rat2.from_int(-1) and pt.b == rat2.parse("1/2")

    def test_a1_no_breaks_fractional(self, rat2):
        orb = compute_orbit(WeightPoint(rat2.parse("1/2"), rat2.from_int(3)), rat2)
        assert breaks(orb, Subalgebra.A1, window=(-5, 5)) == []

    def test_f3_a1_breaks(self, f3):
        orb = compute_orbit(WeightPoint(f3.one, f3.one), f3)
        got = breaks(orb, Subalgebra.A1)
        assert [(k, str(pt)) for k, pt in got] == [(2, "(0, 1)"), (5, "(0, 2)")]

    def test_flavor_d_rejected(self, f3):
        orb = compute_orbit(WeightPoint(f3.one, f3.one), f3)
        with pytest.raises(ValueError):
            breaks(orb, Subalgebra.D)

    def test_infinite_needs_window(self, rat2):
        orb = compute_orbit(WeightPoint(rat2.zero, rat2.one), rat2)
        with pytest.raises(ValueError):
            breaks(orb, Subalgebra.AQ)

    def test_flavor_disjointness(self, f3):
        # AQ and A1 breaks can only coincide at a = 0 and b = 1/q
        orb = compute_orbit(WeightPoint(f3.one, f3.one), f3)
        aq = {k for k, _ in breaks(orb, Subalgebra.AQ)}
        a1 = {k for k, _ in breaks(orb, Subalgebra.A1)}
        for k in aq & a1:
            pt = orb.point(k)
            assert pt.a == f3.zero and pt.b == f3.q ** -1


class TestJIndex:
    def test_interval_example(self, f3):
        # breaks at offsets 2 and 5; a point at offset 3 maps to break 1
        orb = compute_orbit(WeightPoint(f3.one, f3.one), f3)
        bks = breaks(orb, Subalgebra.A1)
        assert j_index(3, bks) == 1
        assert j_index(0, bks) == 0
        assert j_index(1, bks) == 0

    def test_break_is_its_own_index(self, f3):
        orb = compute_orbit(WeightPoint(f3.one, f3.one), f3)
        bks = breaks(orb, Subalgebra.A1)
        assert j_index(2, bks) == 0
        assert j_index(5, bks) == 1

    def test_single_break_everything_zero(self):
        ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="1"))
        orb = compute_orbit(WeightPoint(ctx.zero, ctx.one), ctx)
        bks = breaks(orb, Subalgebra.A1)
        for k in range(5):
            assert j_index(k, bks) == 0

    def test_no_breaks_error(self):
        # over F9 with q=2 the base (t, t) avoids both break conditions:
        # sigma-coordinates stay in {t, 2t} (never 1/q = 2) and
        # tau-coordinates stay in t + Z (never 0)
        ctx = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="2"))
        t = ctx.parse("[0,1]")
        orb = compute_orbit(WeightPoint(t, t), ctx)
        assert breaks(orb, Subalgebra.AQ) == []
        assert breaks(orb, Subalgebra.A1) == []
        with pytest.raises(ValueError):
            j_index(0, breaks(orb, Subalgebra.AQ))


# the point table: RATIONAL, CYCLOTOMIC n=5, FUNCTION_FIELD, F7 and F9
TABLE_SPECS = [
    FieldSpec(kind="RATIONAL", q="2"),
    FieldSpec(kind="CYCLOTOMIC", n=5),
    FieldSpec(kind="FUNCTION_FIELD"),
    FieldSpec(kind="PRIME_FIELD", p=7, q="3"),
    FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="2"),
]


def table_base(ctx):
    rng = random.Random(7)
    a = ctx.random_element(rng)
    b = ctx.zero
    while not b:
        b = ctx.random_element(rng)
    return WeightPoint(a, b)


def table_offsets(orb, order):
    # negative offsets and, on a circular orbit, offsets past one turn
    span = orb.length if orb.circular else 8
    ks = list(range(-span, 2 * span))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        random.Random(3).shuffle(ks)
    return ks


class TestPointTable:
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
    def test_points_match_alpha_point(self, spec, order):
        ctx = make_field(spec)
        base = table_base(ctx)
        orb = compute_orbit(base, ctx)
        for k in table_offsets(orb, order):
            assert orb.point(k) == alpha_point(base, k), (k, str(base))
        for k in table_offsets(orb, order):
            assert orb.point(k) is orb.point(k)

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
    def test_each_point_is_computed_once_by_one_step(self, spec, monkeypatch):
        ctx = make_field(spec)
        orb = compute_orbit(table_base(ctx), ctx)
        steps = []

        def counting(w, k):
            steps.append(k)
            return alpha_point(w, k)

        monkeypatch.setattr(orbits_module, "alpha_point", counting)
        ks = table_offsets(orb, "ascending")
        for k in ks + ks[::-1]:
            orb.point(k)
        # the first point comes from the base; every later one is one step
        # from its stored neighbour
        assert steps == [ks[0]] + [1] * (len(ks) - 1)
        orb.point(ks[0] - 1)
        assert steps[-1] == -1

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
    def test_table_stays_out_of_equality_and_hash(self, spec):
        ctx = make_field(spec)
        base = table_base(ctx)
        one, two = compute_orbit(base, ctx), compute_orbit(base, ctx)
        for k in range(-3, 4):
            one.point(k)
        assert one == two and hash(one) == hash(two) and repr(one) == repr(two)
        assert {one: "x"}[two] == "x"
