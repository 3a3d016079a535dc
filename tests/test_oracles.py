"""Oracle tests: modules built by wmod.junction_module whose structure is
known in closed form, checked against analyze, verify and extend.

On a circular orbit a module with X = 1 on every link but the junction
link j = r-1 has its graded maps fixed by one d x d matrix Z (X = 1
carries Z around the orbit), and its submodules by the subspaces stable
under the junction blocks.  So every verdict reduces to d x d matrices:

* Monodromy modules, X_j = M invertible and T leaving offset 0 equal to
  tx_T(j) M^-1.  End is the centralizer of M, the summands are the primary
  cyclic parts of M, V is irreducible exactly when M has no eigenvector, and
  V and V' are isomorphic exactly when M and M' are conjugate.  For 2 x 2 matrices the
  conjugacy classes are the scalars and the companion matrices.
* Lambda-modules on the orbit of (1, 1), whose one double break is link
  r-1: junction blocks (x, y, y1) with xy = yx = xy1 = y1x = 0.  End is
  the common centralizer of the three blocks.  Restricted to AQ or A1, the
  missing lowering operator T is forced off the junction (X = 1 there), and
  at the junction it is any map with im T in ker x and T(im x) = 0, while
  the mixed relation is vacuous because both of its scalars vanish there.
  So extend_to_D gives FAMILY with k = (d - rank x)^2, or UNIQUE when x is
  invertible.
"""

import json
import random

import pytest
from qdweight import analyze
from qdweight.analyze import are_isomorphic, decompose, endomorphisms, is_irreducible
from qdweight.basering import PRODUCTS, WeightPoint, eval_at
from qdweight.extend import FAMILY, UNIQUE, extend_to_D
from qdweight.families import construct_family
from qdweight.fields import FieldSpec, make_field
from qdweight.linalg import Mat
from qdweight.orbits import compute_orbit
from qdweight.verify import check_relations
from qdweight.wmod import junction_module, op_names_for, restrict
from test_analyze import full_scan_irreducible
from test_hom_ladder_pinned import RUNGS

F4 = make_field(FieldSpec(kind="EXT_FIELD", p=2, f=(1, 1, 1), q="[0,1]"))
F5 = make_field(FieldSpec(kind="PRIME_FIELD", p=5, q="2"))
F7 = make_field(FieldSpec(kind="PRIME_FIELD", p=7, q="2"))
F9 = make_field(FieldSpec(kind="EXT_FIELD", p=3, f=(1, 0, 1), q="2"))


def _circular(ctx, base, d):
    orbit = compute_orbit(base, ctx)
    names = tuple(f"e{i + 1}" for i in range(d))
    return orbit, {k: names for k in range(orbit.length)}


def monodromy_module(ctx, base, M):
    orbit, labels = _circular(ctx, base, M.rows)
    j = orbit.length - 1
    Minv = M.inverse()
    y, y1 = (Minv.scale(eval_at(PRODUCTS[T].tx, orbit.point(j))) for T in ("Y", "Y1"))
    return junction_module(ctx, orbit, None, labels, j, M, y, y1)


def lambda_module(ctx, x, y, y1):
    orbit, labels = _circular(ctx, WeightPoint(ctx.one, ctx.one), x.rows)
    return junction_module(ctx, orbit, None, labels, orbit.length - 1, x, y, y1)


def _classes(ctx):
    """GL_2 conjugacy classes: each scalar, then each companion matrix
    [[0, -c], [1, -b]] of x^2 + b x + c with c != 0, with its root count
    (2 for a scalar, else the distinct roots of x^2 + b x + c)."""
    els = list(ctx.all_elements())
    out = [(Mat(ctx, [[lam, ctx.zero], [ctx.zero, lam]]), 2) for lam in els if lam]
    for b in els:
        for c in els:
            if c:
                roots = sum(1 for r in els if r * r + b * r + c == ctx.zero)
                out.append((Mat(ctx, [[ctx.zero, -c], [ctx.one, -b]]), roots))
    return out


def _random_invertible(ctx, rng, d):
    while True:
        P = Mat(ctx, [[ctx.random_element(rng) for _ in range(d)] for _ in range(d)])
        if P.is_invertible():
            return P


def same_json(got, want):
    return json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)


def _centralizer_dim(ctx, mats):
    """Dimension of {Z : Z A = A Z for every A in mats}, unknowns Z[i][k] at i*d + k."""
    d = mats[0].rows
    rows = []
    for A in mats:
        for i in range(d):
            for col in range(d):
                row = [ctx.zero] * (d * d)
                for k in range(d):
                    row[i * d + k] = row[i * d + k] + A.data[k][col]
                    row[k * d + col] = row[k * d + col] - A.data[i][k]
                rows.append(row)
    return d * d - Mat(ctx, rows, cols=d * d).rank()


@pytest.mark.parametrize(
    "ctx, base, count",
    [
        (F9, WeightPoint(F9.parse("[0,1]"), F9.parse("[0,1]")), 80),
        (F4, WeightPoint(F4.parse("[0,1]"), F4.one), 15),
    ],
    ids=["F9", "F4"],
)
def test_monodromy_modules_match_conjugacy_classes(ctx, base, count):
    classes = _classes(ctx)
    assert len(classes) == count
    rng = random.Random(11)
    for n, (M, roots) in enumerate(classes):
        V = monodromy_module(ctx, base, M)
        assert V.orbit.length == 6
        assert check_relations(V, "D").passed
        scalar = M.data[1][0] == ctx.zero
        assert endomorphisms(V, "D").dim == (4 if scalar else 2)
        parts = decompose(V, "D")
        assert parts.complete
        assert parts.count == (2 if scalar or roots == 2 else 1)
        irreducible = is_irreducible(V, "D")
        assert irreducible.kind == ("YES" if roots == 0 else "NO")
        assert same_json(irreducible, full_scan_irreducible(V, "D")[0])
        P = _random_invertible(ctx, rng, 2)
        assert are_isomorphic(V, monodromy_module(ctx, base, P * M * P.inverse()), "D").is_yes
        other, _ = classes[(n + 1) % len(classes)]
        assert are_isomorphic(V, monodromy_module(ctx, base, other), "D").is_no


def _lambda_triples(ctx, seed, count):
    """Seeded (x, y, y1) with xy = yx = xy1 = y1x = 0: x = P diag(1..1, 0..0) P^-1
    of random rank, y and y1 = P N P^-1 with N on the last d - rank rows and
    columns."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(1, 3)
        rank = rng.randint(0, d)
        P = _random_invertible(ctx, rng, d)
        Pinv = P.inverse()

        def conj(entry):
            return P * Mat(ctx, [[entry(i, k) for k in range(d)] for i in range(d)]) * Pinv

        x = conj(lambda i, k: ctx.one if i == k < rank else ctx.zero)
        y, y1 = (
            conj(lambda i, k: ctx.random_element(rng) if min(i, k) >= rank else ctx.zero) for _ in range(2)
        )
        out.append((x, y, y1, rank))
    return out


LAMBDA_CASES = [
    (ctx, x, y, y1, rank)
    for seed, ctx in enumerate((F5, F7, F9))
    for x, y, y1, rank in _lambda_triples(ctx, seed, 8)
]


@pytest.mark.parametrize(
    "ctx, x, y, y1, rank",
    LAMBDA_CASES,
    ids=[f"F{c.order}-d{x.rows}-rank{r}-{i}" for i, (c, x, _, _, r) in enumerate(LAMBDA_CASES)],
)
def test_lambda_modules(ctx, x, y, y1, rank):
    d = x.rows
    zero = Mat.zeros(ctx, d, d)
    assert all(a * b == zero for a, b in ((x, y), (y, x), (x, y1), (y1, x)))
    V = lambda_module(ctx, x, y, y1)
    assert check_relations(V, "D").passed
    assert endomorphisms(V, "D").dim == _centralizer_dim(ctx, [x, y, y1])
    assert same_json(is_irreducible(V, "D"), full_scan_irreducible(V, "D")[0])
    Q = _random_invertible(ctx, random.Random(d * 31 + rank), d)
    Qinv = Q.inverse()
    W = lambda_module(ctx, *(Q * a * Qinv for a in (x, y, y1)))
    assert are_isomorphic(V, W, "D").is_yes
    for flavour in ("AQ", "A1"):
        res = extend_to_D(restrict(V, flavour))
        if rank == d:
            assert res.kind == UNIQUE
        else:
            assert (res.kind, res.k) == (FAMILY, (d - rank) ** 2)


@pytest.mark.parametrize("ctx", [F9, F5, F7], ids=["F9", "F5", "F7"])
@pytest.mark.parametrize("m", [2, 4])
def test_chain_alt_extension_family_size(ctx, m):
    V = construct_family({"name": "CHAIN_ALT", "params": {"m": m, "a": ["1"] * m}}, ctx)
    for flavour in ("AQ", "A1"):
        res = extend_to_D(restrict(V, flavour))
        assert (res.kind, res.k) == (FAMILY, m * m)


def test_summand_end_by_restriction_matches_solve(monkeypatch):
    # every piece of a decomposition, at every level of the split tree, has
    # its End restricted from its parent's at V's run tops: it has the bytes,
    # at those tops, of End solved on the summand its factors cut out; on the
    # oracle modules and the ladder rungs
    parts, pieces, dims = analyze._parts, [], []

    def recorded(*args):
        got = parts(*args)
        pieces.extend(got)
        return got

    def check(V, algebra):
        pieces.clear()
        decompose(V, algebra)
        names, runs = op_names_for(algebra), analyze.Runs(V, V)
        for factors, tops in pieces:
            U = analyze._summand(V, names, runs, factors, {})
            solved = endomorphisms(U, algebra).maps
            assert len(tops) == len(solved)
            for got, want in zip(tops, solved):
                assert list(got) == [e for e in runs.members if U.dim(e)]
                assert [m.to_json() for m in got.values()] == [want[e].to_json() for e in got]
            dims.append(len(tops))

    monkeypatch.setattr(analyze, "_parts", recorded)
    base = {F9: WeightPoint(F9.parse("[0,1]"), F9.parse("[0,1]")), F4: WeightPoint(F4.parse("[0,1]"), F4.one)}
    for ctx, point in base.items():
        for M, _ in _classes(ctx):
            check(monodromy_module(ctx, point, M), "D")
    for ctx, x, y, y1, _ in LAMBDA_CASES:
        check(lambda_module(ctx, x, y, y1), "D")
    alt4 = construct_family({"name": "CHAIN_ALT", "params": {"m": 4, "a": ["1"] * 4}}, F9)
    for algebra in ("D", "AQ", "A1"):
        check(alt4, algebra)
    for _, p, q, m, split in RUNGS:
        if split:
            ctx = make_field(FieldSpec(kind="PRIME_FIELD", p=p, q=q))
            check(construct_family({"name": "CHAIN_ALT", "params": {"m": m, "a": ["1"] * m}}, ctx), "D")
    assert len(dims) >= 100 and max(dims) >= 4
