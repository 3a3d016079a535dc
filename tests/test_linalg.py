"""Exact linear algebra tests."""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdweight.fields import Fel, FieldCtx, FieldSpec, make_field
from qdweight.linalg import Echelon, Mat, dense, fitting_power, product_terms, solution

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


def ints(ctx, rows):
    """A matrix from rows of ints."""
    return Mat(ctx, [[ctx.from_int(v) for v in row] for row in rows])


def dense_rref(m):
    """The echelon m.rref() returns as a dense reduced Mat, zero rows last,
    and its pivot columns."""
    ech = m.rref()
    rows = [dense(ech.rows[p], m.cols, m.ctx.zero) for p in ech.pivots]
    rows += [[m.ctx.zero] * m.cols for _ in range(m.rows - ech.rank)]
    return Mat(m.ctx, rows, cols=m.cols), ech.pivots


# oracle cases


def test_identity_multiplication():
    a = ints(QQ, [[1, 2], [3, 4]])
    assert Mat.identity(QQ, 2) * a == a
    assert a * Mat.identity(QQ, 2) == a


def test_known_inverse():
    a = ints(QQ, [[1, 2], [3, 4]])
    inv = a.inverse()
    # det = -2, inverse = [[-2, 1], [3/2, -1/2]]
    assert inv.data[0][0] == QQ.from_int(-2)
    assert inv.data[0][1] == QQ.from_int(1)
    assert inv.data[1][0] == QQ.parse("3/2")
    assert inv.data[1][1] == QQ.parse("-1/2")


def test_singular_has_no_inverse():
    a = ints(QQ, [[1, 2], [2, 4]])
    assert a.inverse() is None
    assert not a.is_invertible()
    assert a.rank() == 1


def test_nullspace_known():
    a = ints(QQ, [[1, 2], [2, 4]])
    ns = a.nullspace()
    assert len(ns) == 1
    # kernel spanned by (-2, 1)
    assert ns[0].data[0][0] == QQ.from_int(-2)
    assert ns[0].data[1][0] == QQ.from_int(1)


def test_solve_inconsistent():
    a = ints(QQ, [[1, 1], [1, 1]])
    b = ints(QQ, [[1], [2]])
    assert a.solve(b) is None


def test_solve_underdetermined():
    a = ints(QQ, [[1, 1]])
    b = ints(QQ, [[5]])
    x = a.solve(b)
    assert a * x == b


def test_finite_field_inverse():
    a = Mat(F9, [[F9.q, F9.one], [F9.zero, F9.q]])
    inv = a.inverse()
    assert a * inv == Mat.identity(F9, 2)


def test_fitting_power_splits():
    # nilpotent block plus invertible block
    a = ints(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 2]])
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
    a = ints(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
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
    a = ints(QQ, [[1, 2]])
    b = ints(QQ, [[1, 2]])
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a - b.transpose()


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
        red, pivots = dense_rref(a)
        # idempotent
        red2, pivots2 = dense_rref(red)
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


def test_transpose_involution_and_product():
    a = ints(QQ, [[1, 2, 3], [4, 5, 6]])
    b = ints(QQ, [[1, 0], [0, 1], [1, 1]])
    assert a.transpose().transpose() == a
    assert (a * b).transpose() == b.transpose() * a.transpose()


# the products and scales against a naive triple loop, over every field kind

KERNEL_FIELDS = {
    "RATIONAL": QQ,
    "CYCLOTOMIC": make_field(FieldSpec(kind="CYCLOTOMIC", n=5)),
    "FUNCTION_FIELD": make_field(FieldSpec(kind="FUNCTION_FIELD")),
    "PRIME_FIELD": make_field(FieldSpec(kind="PRIME_FIELD", p=7, q="3")),
    "EXT_FIELD": F9,
}
# (rows of A, cols of A = rows of B, cols of B), empty shapes included
KERNEL_SHAPES = [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (1, 1, 1), (4, 4, 4), (3, 5, 2)]


@pytest.mark.parametrize("kind", sorted(KERNEL_FIELDS))
def test_a_document_memo_writes_what_str_writes(kind):
    ctx = KERNEL_FIELDS[kind]
    rng = random.Random(kind)
    values = [ctx.random_element(rng) for _ in range(6)] + [ctx.zero, ctx.one, -ctx.one, ctx.q]
    # equal values held by distinct objects: in characteristic 0 each
    # product is a new Fel, in a finite field the one interned element
    twins = [ctx.q * ctx.q, ctx.q * ctx.q, ctx.parse(str(ctx.q * ctx.q))]
    assert twins[0] == twins[1] == twins[2]
    if not ctx.is_finite:
        assert twins[0] is not twins[1]
    dense_block = Mat(ctx, [[rng.choice(values + twins) for _ in range(4)] for _ in range(3)])
    blocks = [dense_block, Mat(ctx, [twins]), Mat.zeros(ctx, 2, 3), Mat.zeros(ctx, 0, 4), Mat.zeros(ctx, 3, 0)]
    memo = {}
    for m in blocks + blocks:  # every block twice, through one memo
        assert m.to_json(memo) == [[str(v) for v in row] for row in m.data]
        assert m.to_json() == m.to_json(memo)
    shown = {str(v) for m in blocks for row in m.data for v in row}
    assert sorted(memo.values()) == sorted(shown)


def random_mat(ctx, rng, rows, cols, density):
    return Mat(
        ctx,
        [[ctx.random_element(rng) if rng.random() < density else ctx.zero for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


# the two-field ids name QQ and F9 as the other property tests do
@pytest.mark.parametrize("ctx", list(KERNEL_FIELDS.values()), ids=["QQ", "CYCLOTOMIC", "FUNCTION_FIELD", "PRIME_FIELD", "F9"])
def test_inverse_round_trip(monkeypatch, ctx):
    # inverse is one solve against the identity, checked here rather than
    # by a product of its own
    mul, muls = Mat.__mul__, []
    monkeypatch.setattr(Mat, "__mul__", lambda m, other: muls.append(m) or mul(m, other))

    @settings(max_examples=40, deadline=None)
    @given(mat_strategy(ctx, max_dim=3))
    def run(a):
        if a.rows != a.cols:
            return
        muls.clear()
        inv = a.inverse()
        assert muls == []
        assert (inv is None) == (a.rank() < a.rows)
        if inv is not None:
            assert a * inv == Mat.identity(ctx, a.rows)
            assert inv * a == Mat.identity(ctx, a.rows)

    run()


@pytest.mark.parametrize("kind", sorted(KERNEL_FIELDS))
def test_each_elimination_calls_rref_once(monkeypatch, kind):
    # a caller timing this layer wraps Mat.rref alone
    ctx = KERNEL_FIELDS[kind]
    rng = random.Random(f"rref_once/{kind}")
    full = random_mat(ctx, rng, 3, 3, 1)
    singular = random_mat(ctx, rng, 3, 1, 1) * random_mat(ctx, rng, 1, 3, 1)
    rhs = random_mat(ctx, rng, 3, 2, 1)
    rref, calls = Mat.rref, []
    monkeypatch.setattr(Mat, "rref", lambda m: calls.append(m) or rref(m))
    for m in (full, singular, Mat.zeros(ctx, 3, 3)):
        for name in ("rank", "is_invertible", "column_space", "rank_factors", "image_and_kernel", "nullspace", "inverse"):
            calls.clear()
            getattr(m, name)()
            assert len(calls) == 1, name
        calls.clear()
        m.solve(rhs)
        assert len(calls) == 1


def naive_product(a, b):
    zero = a.ctx.zero
    return [[sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), zero) for j in range(b.cols)] for i in range(a.rows)]


def assert_mat(m, rows, cols, data):
    assert (m.rows, m.cols) == (rows, cols)
    assert m.data == data


@pytest.mark.parametrize("density", [0, 0.2, 1])
@pytest.mark.parametrize("kind", sorted(KERNEL_FIELDS))
def test_kernels_match_the_naive_loops(kind, density):
    ctx = KERNEL_FIELDS[kind]
    rng = random.Random(f"{kind}/{density}")
    for r, k, c in KERNEL_SHAPES:
        a = random_mat(ctx, rng, r, k, density)
        b = random_mat(ctx, rng, k, c, density)
        assert_mat(a * b, r, c, naive_product(a, b))
        other = random_mat(ctx, rng, r, k, density)
        assert_mat(a - other, r, k, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, other.data)])
        for s in (ctx.zero, ctx.one, -ctx.one, ctx.random_element(rng)):
            assert_mat(a.scale(s), r, k, [[x * s for x in row] for row in a.data])
        # small powers of small squares: over Q(t) the degrees grow fast
        e = min(k, 3)
        square = random_mat(ctx, rng, e, e, density)
        acc = Mat.identity(ctx, e)
        for n in range(4):
            assert_mat(square.pow(n), e, e, acc.data)
            acc = Mat(ctx, naive_product(acc, square), cols=e)


@pytest.mark.parametrize("kind", sorted(KERNEL_FIELDS))
def test_scalar_value_matches_the_naive_check(kind):
    ctx = KERNEL_FIELDS[kind]
    rng = random.Random(kind)

    def naive(m):
        if m.rows != m.cols:
            return None
        c = m.data[0][0] if m.rows else ctx.zero
        return c if m == Mat.scalar(ctx, m.rows, c) else None

    cases = [Mat.zeros(ctx, 0, 0), Mat.zeros(ctx, 2, 3), random_mat(ctx, rng, 3, 3, 1)]
    for d in (1, 2, 4):
        for c in (ctx.zero, ctx.one, ctx.random_element(rng)):
            # entries parsed one by one, so no two share an object
            m = Mat(ctx, [[ctx.parse(ctx.show(c if i == j else ctx.zero)) for j in range(d)] for i in range(d)])
            cases.append(m)
            for i, j in ((0, d - 1), (d - 1, d - 1)):
                bent = Mat(ctx, m.data)
                bent.data[i][j] += ctx.one
                cases.append(bent)
    for m in cases:
        want = naive(m)
        assert m.scalar_value() == want and (want is None) == (m.scalar_value() is None)
    assert sum(naive(m) is not None for m in cases) >= 9


@pytest.mark.parametrize("kind", ["PRIME_FIELD", "RATIONAL"])
def test_scalar_value_reads_the_diagonal_first(monkeypatch, kind):
    # Fel.__eq__ calls per read, against the row-by-row check (9, 16 and 2):
    # a dense block is turned down at its second diagonal entry
    ctx = KERNEL_FIELDS[kind]
    eq, calls = Fel.__eq__, []
    monkeypatch.setattr(Fel, "__eq__", lambda a, b: calls.append(1) or eq(a, b))

    def work(m):
        calls.clear()
        m.scalar_value()
        return len(calls)

    full = Mat(ctx, [[ctx.from_int(1 + (i + j) % 6) for j in range(8)] for i in range(8)])
    assert full.scalar_value() is None and full.data[1][1] != full.data[0][0]
    assert work(full) <= 2
    assert work(Mat.scalar(ctx, 8, ctx.from_int(3))) <= 16
    assert work(Mat(ctx, [[ctx.from_int(3)]])) <= 2


def random_idempotent(ctx, rng, d, rank):
    """S diag(1, ..., 1, 0, ..., 0) S^-1 for a random invertible S."""
    while True:
        s = random_mat(ctx, rng, d, d, 1)
        inverse = s.inverse()
        if inverse is not None:
            break
    diag = Mat(ctx, [[ctx.one if i == j < rank else ctx.zero for j in range(d)] for i in range(d)], cols=d)
    return s * diag * inverse


@pytest.mark.parametrize("kind", sorted(KERNEL_FIELDS))
def test_rank_factors(kind):
    ctx = KERNEL_FIELDS[kind]
    rng = random.Random(f"rank_factors/{kind}")
    d = 3 if kind == "FUNCTION_FIELD" else 4
    cases = [Mat.zeros(ctx, d, d), Mat.identity(ctx, d), Mat.zeros(ctx, 2, 3), Mat.zeros(ctx, 0, 0)]
    cases += [random_mat(ctx, rng, r, c, density) for r, c in ((1, 1), (3, 5), (5, 2), (d, d)) for density in (0.3, 1)]
    # of rank below their size
    cases += [random_mat(ctx, rng, r, k, 1) * random_mat(ctx, rng, k, c, 1) for r, k, c in ((4, 1, 3), (d, 2, d))]
    idempotents = [random_idempotent(ctx, rng, d, rank) for rank in range(d + 1)]
    for m in cases + idempotents:
        b, c = m.rank_factors()
        red, pivots = dense_rref(m)
        assert b * c == m
        assert b == m.column_space()
        assert c == Mat(ctx, red.data[: len(pivots)], cols=m.cols)
        assert (b.rows, b.cols, c.rows, c.cols) == (m.rows, len(pivots), len(pivots), m.cols)
    for rank, p in enumerate(idempotents):
        assert p * p == p
        b, c = p.rank_factors()
        assert c * b == Mat.identity(ctx, rank)
    # the zero and identity matrices: empty factors, and the identity twice
    assert Mat.zeros(ctx, d, d).rank_factors() == (Mat.zeros(ctx, d, 0), Mat.zeros(ctx, 0, d))
    assert Mat.identity(ctx, d).rank_factors() == (Mat.identity(ctx, d), Mat.identity(ctx, d))


def idempotent_with_pivots(ctx, rng, d, pivots):
    """B C with C the reduced echelon form with the given pivot columns and
    random entries right of its pivots, and B random but for C B = 1."""
    r, free = len(pivots), [j for j in range(d) if j not in pivots]
    c = [[ctx.zero] * d for _ in range(r)]
    for i, p in enumerate(pivots):
        c[i][p] = ctx.one
        for j in free:
            if j > p:
                c[i][j] = ctx.random_element(rng)
    b = {j: [ctx.random_element(rng) for _ in range(r)] for j in free}
    for i, p in enumerate(pivots):
        b[p] = [(ctx.one if i == s else ctx.zero) - sum((c[i][j] * b[j][s] for j in free), ctx.zero) for s in range(r)]
    return Mat(ctx, [b[j] for j in range(d)], cols=r) * Mat(ctx, c, cols=d)


@pytest.mark.parametrize("kind", ["PRIME_FIELD", "EXT_FIELD", "RATIONAL"])
def test_rank_factors_of_an_idempotent_inside_another(kind):
    # p2 an idempotent in the image coordinates of p1 = B1 C1: the idempotent
    # B1 p2 C1 has rank factors B1 B2 and C2 C1, its pivots p1's indexed by
    # p2's, whatever p1's pivots are
    ctx = KERNEL_FIELDS[kind]
    rng = random.Random(f"nested_rank_factors/{kind}")
    cases = 0
    for d in (1, 2, 4, 6):
        for r1 in range(1, d + 1):
            for r2 in range(r1 + 1):
                for _ in range(2):
                    pivots1, pivots2 = sorted(rng.sample(range(d), r1)), sorted(rng.sample(range(r1), r2))
                    p1, p2 = idempotent_with_pivots(ctx, rng, d, pivots1), idempotent_with_pivots(ctx, rng, r1, pivots2)
                    assert p1 * p1 == p1 and p2 * p2 == p2
                    (b1, c1), (b2, c2) = p1.rank_factors(), p2.rank_factors()
                    nested = b1 * p2 * c1
                    assert nested.rank_factors() == (b1 * b2, c2 * c1)
                    assert nested.rref().pivots == [pivots1[j] for j in pivots2]
                    cases += pivots1 != list(range(r1))
    assert cases >= 20


@pytest.mark.parametrize("d", [1, 5, 9])
def test_identity_product_costs_at_most_d_squared_products(monkeypatch, d):
    rng = random.Random(d)
    a = random_mat(F9, rng, d, d, 1)
    calls = []
    mul = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul", lambda ctx, x, y: calls.append(1) or mul(ctx, x, y))
    ident = Mat.identity(F9, d)
    for left, right, want in ((ident, a, a), (a, ident, a), (ident, ident, ident)):
        calls.clear()
        assert left * right == want
        assert len(calls) <= d * d


# the equation layer: solution against the readers it replaced, and
# product_terms against Mat products

F3 = make_field(FieldSpec(kind="PRIME_FIELD", p=3, q="2"))
EQUATION_FIELDS = {"F3": F3, "F9": F9, "QQ": QQ}


def kernel_reader(ctx, red, pivots, cols):
    """Mat._kernel as it was: one kernel vector per free column."""
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        vec = [ctx.zero] * cols
        vec[f] = ctx.one
        for r, p in enumerate(pivots):
            vec[p] = -red.data[r][f]
        basis.append(vec)
    return basis


def solve_reader(ctx, red, pivots, n, m):
    """The reading loop of Mat.solve as it was: rows of X, or None."""
    if any(p >= n for p in pivots):
        return None
    out = [[ctx.zero] * m for _ in range(n)]
    for r, p in enumerate(pivots):
        for j in range(m):
            out[p][j] = red.data[r][n + j]
    return out


def block_reader(ctx, ech, w):
    """The reader of extend.solve_blocks as it was, for one block, each
    row {column: entry} read with zero at the columns it does not hold."""
    value = {p: row.get(w, ctx.zero) for p, row in ech.rows.items()}
    particular = [value.get(j, ctx.zero) for j in range(w)]
    kernel = []
    for f in range(w):
        if f in value:
            continue
        vec = [ctx.zero] * w
        vec[f] = ctx.one
        for p, row in ech.rows.items():
            vec[p] = -row.get(f, ctx.zero)
        kernel.append(vec)
    return particular, kernel


def sparse_rows(red, pivots):
    """The nonzero rows of a reduced Mat, {pivot: {column: entry}} as Echelon keeps them."""
    return {p: {j: c for j, c in enumerate(red.data[r]) if c} for r, p in enumerate(pivots)}


def random_system(ctx, rng, rows, width, m, consistent):
    """[a | b] with a of rank below its size now and then, b = a x when consistent."""
    a = random_mat(ctx, rng, rows, width, rng.choice([0.3, 0.7, 1]))
    if rows > 1 and rng.random() < 0.5:
        a.data[-1] = list(a.data[0])  # a repeated equation
    x = random_mat(ctx, rng, width, m, 1)
    b = a * x if consistent else random_mat(ctx, rng, rows, m, 1)
    return a, b


@pytest.mark.parametrize("name", sorted(EQUATION_FIELDS))
@pytest.mark.parametrize("seed", range(4))
def test_solution_matches_the_readers_it_replaced(name, seed):
    ctx = EQUATION_FIELDS[name]
    rng = random.Random(f"{name}/{seed}")
    seen_none = seen_free = 0
    for rows, width in [(0, 3), (3, 0), (1, 1), (3, 5), (5, 3), (4, 4), (6, 6)]:
        for m in (0, 1, 3):
            for consistent in (True, False):
                a, b = random_system(ctx, rng, rows, width, m, consistent)
                red, pivots = dense_rref(a.hstack(b))
                got = solution(ctx, sparse_rows(red, pivots), width, m)
                want = solve_reader(ctx, red, pivots, width, m)
                if want is None:
                    assert got is None
                    seen_none += 1
                    continue
                x, kernel = got
                assert x == want
                red_a, pivots_a = dense_rref(a)
                assert kernel == kernel_reader(ctx, red_a, pivots_a, width)
                assert a * Mat(ctx, x, cols=m) == b
                assert all((a * Mat.column(ctx, v)).is_zero() for v in kernel)
                seen_free += len(kernel) > 0
                # the same system fed row by row into an Echelon, one rhs column
                if m == 1:
                    ech = Echelon()
                    for row, c in zip(a.data, b.data):
                        ech.insert(row + c)
                    particular, free = block_reader(ctx, ech, width)
                    x1, kernel1 = solution(ctx, ech.rows, width, 1)
                    assert [v for v, in x1] == particular and kernel1 == free
    assert seen_none and seen_free


def test_solution_of_zero_width_blocks():
    zero, one = F3.zero, F3.one
    assert solution(F3, {}, 0) == ([], [])
    assert solution(F3, {}, 0, 2) == ([], [])
    assert solution(F3, {0: {0: one}}, 0, 2) is None
    # no equations at all: x = 0 and every unknown free
    assert solution(F3, {}, 2, 1) == ([[zero], [zero]], [[one, zero], [zero, one]])


def flat_product(left, z, right):
    """vec(left * z * right), row-major, with None for an identity factor."""
    if left is not None:
        z = left * z
    if right is not None:
        z = z * right
    return [v for row in z.data for v in row]


@pytest.mark.parametrize("name", sorted(EQUATION_FIELDS))
@pytest.mark.parametrize("sides", ["left", "right", "both"])
def test_product_terms_match_mat_products(name, sides):
    ctx = EQUATION_FIELDS[name]
    rng = random.Random(f"{name}/{sides}")
    for (a, r), (c, b) in [((3, 2), (4, 2)), ((1, 1), (1, 1)), ((4, 4), (4, 4)), ((0, 2), (3, 0)), ((2, 0), (0, 3))]:
        for density in (0, 0.4, 1):
            left = random_mat(ctx, rng, a, r, density) if sides != "right" else None
            right = random_mat(ctx, rng, c, b, density) if sides != "left" else None
            terms = product_terms((r, c), left, right)
            out_rows = a if left is not None else r
            out_cols = b if right is not None else c
            assert len(terms) == out_rows * out_cols
            for entry in terms:
                assert all(coef for _, coef in entry)
                assert [e for e, _ in entry] == sorted({e for e, _ in entry})
            forms = [dict(entry) for entry in terms]
            # the coefficient of entry e of Z is the product at the unit matrix E_e
            for e in range(r * c):
                unit = Mat.zeros(ctx, r, c)
                unit.data[e // c][e % c] = ctx.one
                assert flat_product(left, unit, right) == [form.get(e, ctx.zero) for form in forms]
            # and vec(L Z R) is the terms applied to vec(Z)
            z = random_mat(ctx, rng, r, c, 0.6)
            vec_z = flat_product(None, z, None)
            applied = [sum((coef * vec_z[e] for e, coef in entry), ctx.zero) for entry in terms]
            assert applied == flat_product(left, z, right)


# the sparse kernel against the dense one it replaced


class DenseEchelon:
    """Echelon as it was: dense rows in pivot order, scanned in full."""

    def __init__(self):
        self.pivots = []
        self.rows = []

    def insert(self, vec):
        v = list(vec)
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v[piv:] = [a - c * b if b else a for a, b in zip(v[piv:], row[piv:])]
        lead = next((i for i, c in enumerate(v) if c), None)
        if lead is None:
            return None
        inv = v[lead].inverse()
        v[lead:] = [a * inv if a else a for a in v[lead:]]
        for i, row in enumerate(self.rows):
            c = row[lead]
            if c:
                self.rows[i] = row[:lead] + [a - c * b if b else a for a, b in zip(row[lead:], v[lead:])]
        at = bisect.bisect(self.pivots, lead)
        self.pivots.insert(at, lead)
        self.rows.insert(at, v)
        return v


def dense_solution(ctx, pivots, rows, width, m=0):
    """linalg.solution as it was, reading dense rows in pivot order."""
    if any(p >= width for p in pivots):
        return None
    x = [[ctx.zero] * m for _ in range(width)]
    for p, row in zip(pivots, rows):
        x[p] = row[width : width + m]
    kernel = []
    for f in sorted(set(range(width)).difference(pivots)):
        vec = [ctx.zero] * width
        vec[f] = ctx.one
        for p, row in zip(pivots, rows):
            vec[p] = -row[f]
        kernel.append(vec)
    return x, kernel


def split_terms(ctx, rng, vec):
    """Shuffled terms summing to vec: some columns named twice, some of
    them zero columns named twice with entries that cancel."""
    out = []
    for j, c in enumerate(vec):
        if rng.random() < 0.3:
            a = ctx.random_element(rng)
            out += [(j, a), (j, c - a)]
        elif c:
            out.append((j, c))
    rng.shuffle(out)
    return out


def random_rows(ctx, rng, count, width, density):
    rows = [[ctx.random_element(rng) if rng.random() < density else ctx.zero for _ in range(width)] for _ in range(count)]
    for i in range(1, count):
        pick = rng.random()
        if pick < 0.15:
            rows[i] = list(rows[rng.randrange(i)])  # a repeated row
        elif pick < 0.25:
            rows[i] = [ctx.zero] * width  # a zero row
        elif pick < 0.35:
            # a combination of two earlier rows, so it is spanned
            a, b = rows[rng.randrange(i)], rows[rng.randrange(i)]
            s = ctx.random_element(rng)
            rows[i] = [x + s * y for x, y in zip(a, b)]
    return rows


@pytest.mark.parametrize("density", [0, 0.1, 0.5, 1])
@pytest.mark.parametrize("kind", sorted(KERNEL_FIELDS))
def test_echelon_matches_the_dense_kernel(kind, density):
    ctx = KERNEL_FIELDS[kind]
    rng = random.Random(f"echelon/{kind}/{density}")
    # over Q(t) the degrees grow with every elimination step: fewer rows there
    most = 3 if kind == "FUNCTION_FIELD" else 9
    for width in range(61):
        rows = random_rows(ctx, rng, rng.randint(0, min(most, width + 2)), width, density)
        old, by_terms, by_rows = DenseEchelon(), Echelon(), Echelon()
        for row in rows:
            want = old.insert(row)
            lead = by_terms.insert_terms(split_terms(ctx, rng, row))
            assert (None if lead is None else dense(by_terms.rows[lead], width, ctx.zero)) == want
            assert by_rows.insert(row) == want
        for ech in (by_terms, by_rows):
            assert ech.pivots == old.pivots and ech.rank == len(old.rows)
            assert [dense(ech.rows[p], width, ctx.zero) for p in ech.pivots] == old.rows
            # no stored entry is zero, and each row has its pivot's 1 first
            assert all(c for row in ech.rows.values() for c in row.values())
            assert all(min(row) == p and row[p] == ctx.one for p, row in ech.rows.items())
            for m in {0, min(2, width)}:
                assert solution(ctx, ech.rows, width - m, m) == dense_solution(ctx, old.pivots, old.rows, width - m, m)


def test_echelon_work_is_bounded_by_the_terms_touched(monkeypatch):
    ctx = KERNEL_FIELDS["PRIME_FIELD"]
    one, two, three = ctx.one, ctx.from_int(2), ctx.from_int(3)
    width = 100_000
    ech = Echelon()
    for terms in ([(0, one), (width - 1, two)], [(1, three), (width // 2, one)], [(7, one), (width - 2, three)]):
        ech.insert_terms(terms)
    calls = []
    for name in ("add", "neg", "mul", "inv"):
        op = getattr(FieldCtx, name)
        monkeypatch.setattr(FieldCtx, name, lambda self, *args, op=op: calls.append(1) or op(self, *args))
    truth = Fel.__bool__
    monkeypatch.setattr(Fel, "__bool__", lambda self: calls.append(1) or truth(self))
    # reduced by rows 0 and 1, new pivot width // 2, which row 1 held
    lead = ech.insert_terms([(0, two), (1, one), (77_777, three)])
    monkeypatch.undo()
    assert lead == width // 2 and ech.rank == 4
    assert sorted(ech.rows[1]) == [1, 77_777, width - 1]
    assert len(calls) <= 40


def test_chain_alt_m32_end_makes_few_zero_tests(monkeypatch):
    from qdweight.analyze import endomorphisms
    from qdweight.families import construct_family

    ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=7, q="2"))
    V = construct_family({"name": "CHAIN_ALT", "params": {"m": 32, "a": ["1"] * 32}}, ctx)
    calls = []
    truth = Fel.__bool__
    monkeypatch.setattr(Fel, "__bool__", lambda self: calls.append(1) or truth(self))
    end = endomorphisms(V, "D")
    monkeypatch.undo()
    assert end.dim == 16
    # 41,184 when recorded; the dense kernel made about 5.3 million
    assert len(calls) < 60_000
