"""Exact linear algebra tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdweight.fields import FieldSpec, make_field
from qdweight.linalg import Mat, fitting_power

QQ = make_field(FieldSpec(kind="RATIONAL", q="2"))
F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=[1, 0, 1], q="[0,1]"))


def mat_strategy(ctx, max_dim=4):
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))

    def build(dims_and_entries):
        (r, c), entries = dims_and_entries
        it = iter(entries)
        return Mat(ctx, [[ctx.from_int(next(it)) for _ in range(c)] for _ in range(r)])

    return dims.flatmap(
        lambda rc: st.tuples(
            st.just(rc), st.lists(st.integers(-9, 9), min_size=rc[0] * rc[1], max_size=rc[0] * rc[1])
        )
    ).map(build)


# oracle cases


def test_identity_multiplication():
    a = Mat.from_ints(QQ, [[1, 2], [3, 4]])
    assert Mat.identity(QQ, 2) * a == a
    assert a * Mat.identity(QQ, 2) == a


def test_known_inverse():
    a = Mat.from_ints(QQ, [[1, 2], [3, 4]])
    inv = a.inverse()
    # det = -2, inverse = [[-2, 1], [3/2, -1/2]]
    assert inv.data[0][0] == QQ.from_int(-2)
    assert inv.data[0][1] == QQ.from_int(1)
    assert inv.data[1][0] == QQ.parse("3/2")
    assert inv.data[1][1] == QQ.parse("-1/2")


def test_singular_has_no_inverse():
    a = Mat.from_ints(QQ, [[1, 2], [2, 4]])
    assert a.inverse() is None
    assert not a.is_invertible()
    assert a.rank() == 1


def test_nullspace_known():
    a = Mat.from_ints(QQ, [[1, 2], [2, 4]])
    ns = a.nullspace()
    assert len(ns) == 1
    # kernel spanned by (-2, 1)
    assert ns[0].data[0][0] == QQ.from_int(-2)
    assert ns[0].data[1][0] == QQ.from_int(1)


def test_solve_inconsistent():
    a = Mat.from_ints(QQ, [[1, 1], [1, 1]])
    b = Mat.from_ints(QQ, [[1], [2]])
    assert a.solve(b) is None


def test_solve_underdetermined():
    a = Mat.from_ints(QQ, [[1, 1]])
    b = Mat.from_ints(QQ, [[5]])
    x = a.solve(b)
    assert a * x == b


def test_finite_field_inverse():
    a = Mat(F9, [[F9.q, F9.one], [F9.zero, F9.q]])
    inv = a.inverse()
    assert a * inv == Mat.identity(F9, 2)


def test_fitting_power_splits():
    # nilpotent block plus invertible block
    a = Mat.from_ints(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 2]])
    p = fitting_power(a)
    ker = p.nullspace()
    img = p.column_space()
    assert len(ker) + img.cols == 3
    assert len(ker) == 2
    # kernel and image intersect trivially: stacked basis is invertible
    cols = [v.col(0) for v in ker] + [img.col(j) for j in range(img.cols)]
    stacked = Mat(QQ, [[cols[j][i] for j in range(3)] for i in range(3)])
    assert stacked.is_invertible()


def test_image_and_kernel_match_column_space_and_nullspace():
    a = Mat.from_ints(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    image, kernel = a.image_and_kernel()
    assert image == a.column_space()
    assert [kernel.col(j) for j in range(kernel.cols)] == [v.col(0) for v in a.nullspace()]
    image, kernel = Mat.identity(QQ, 2).image_and_kernel()
    assert image == Mat.identity(QQ, 2) and (kernel.rows, kernel.cols) == (2, 0)


@pytest.mark.parametrize("d, products", [(1, 0), (2, 1), (4, 2), (6, 3)])
def test_fitting_power_squares_up_to_the_dimension(monkeypatch, d, products):
    # a nilpotent shift of index d: its power d is zero and power d - 1 is not
    a = Mat(QQ, [[QQ.one if i == j + 1 else QQ.zero for j in range(d)] for i in range(d)])
    calls = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    assert fitting_power(a).is_zero()
    assert len(calls) == products


def test_ragged_rejected():
    with pytest.raises(ValueError):
        Mat(QQ, [[QQ.one], [QQ.one, QQ.zero]])


def test_shape_mismatch_rejected():
    a = Mat.from_ints(QQ, [[1, 2]])
    b = Mat.from_ints(QQ, [[1, 2]])
    with pytest.raises(ValueError):
        a * b


def test_json_round_trip():
    a = Mat(F9, [[F9.q, F9.one - F9.q], [F9.zero, F9.q * F9.q]])
    back = Mat.from_json(F9, a.to_json(), 2, 2)
    assert back == a
    with pytest.raises(ValueError):
        Mat.from_json(F9, a.to_json(), 3, 2)


# properties


@pytest.mark.parametrize("ctx", [QQ, F9], ids=["QQ", "F9"])
def test_rref_properties(ctx):
    @settings(max_examples=40, deadline=None)
    @given(mat_strategy(ctx))
    def run(a):
        red, pivots = a.rref()
        # idempotent
        red2, pivots2 = red.rref()
        assert red2 == red and pivots2 == pivots
        # every kernel vector is killed
        for v in a.nullspace():
            assert (a * v).is_zero()
        # rank-nullity
        assert len(pivots) + len(a.nullspace()) == a.cols

    run()


@pytest.mark.parametrize("ctx", [QQ, F9], ids=["QQ", "F9"])
def test_solve_consistent_systems(ctx):
    @settings(max_examples=40, deadline=None)
    @given(mat_strategy(ctx), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    def run(a, xs):
        x = Mat.column(ctx, [ctx.from_int(v) for v in xs[: a.cols]])
        if x.rows < a.cols:
            return
        b = a * x
        sol = a.solve(b)
        assert sol is not None
        assert a * sol == b

    run()


@pytest.mark.parametrize("ctx", [QQ, F9], ids=["QQ", "F9"])
def test_inverse_round_trip(ctx):
    @settings(max_examples=40, deadline=None)
    @given(mat_strategy(ctx, max_dim=3))
    def run(a):
        if a.rows != a.cols:
            return
        inv = a.inverse()
        if inv is None:
            assert a.rank() < a.rows
        else:
            assert a * inv == Mat.identity(ctx, a.rows)
            assert inv * a == Mat.identity(ctx, a.rows)

    run()


def test_transpose_involution_and_product():
    a = Mat.from_ints(QQ, [[1, 2, 3], [4, 5, 6]])
    b = Mat.from_ints(QQ, [[1, 0], [0, 1], [1, 1]])
    assert a.transpose().transpose() == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
