"""Mechanical relation checking, and the polynomial-operator realization.

check_relations decides every defining relation offset by offset.  The
product relations and the mixed relation come from D's relation table,
basering.PRODUCTS, one pair per lowering operator of the algebra; each
lowering operator also brings its two twist laws, and X's two close the
list.  On windowed modules a relation instance is skipped exactly when one
of its operator applications would leave the window; everything else,
including zero-dimensional spaces inside the window, is checked.

Each scalar is evaluated once per offset and call: tau and sigma at k,
their images a + 1 and q b under alpha^-1, which X's twist laws at k and
those of Y and Y1 at k + 1 read, and the PRODUCTS scalars, which the
mixed relation shares.  This is exact: X's laws hold on scalars when
a_k + 1 = a_{k+1} and q b_k = b_{k+1}, in a field the same tests as
a_k = a_{k+1} - 1 and b_k = b_{k+1} / q.  A twist law M c1 = c2 M holds
when c1 = c2; a product or mixed relation on two c 1 blocks is decided on
the entries, (c 1)(c' 1) = c c' 1, and any other product is compared with
c 1 by Mat.scalar_value.  Only a violation builds the sides not yet built.
Each block's c is read once per call too: Mat.scalar_value runs once on
every block of the algebra's operators, into a table the products and
the mixed relation read, beside tables of the dims and of the offsets one
step up and down.  Each relation row names the operators it reads, so a
check can keep only the rows that read a given operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .basering import MIXED_ID, PRODUCTS
from .families import MAX_CHAIN_ENTRIES
from .fields import Fel, FieldCtx
from .linalg import Mat
from .wmod import WeightModule, as_subalgebra, op_names_for

if TYPE_CHECKING:
    # typing caches a subscripted alias with its arguments, which would keep
    # this package's classes alive after a re-import replaced them

    # a relation row: (id, direction, the operators it reads, check),
    # check(k) giving None when the relation holds at k and else its two sides
    Check = Callable[[int], Optional[Tuple[Mat, Mat]]]
    Relation = Tuple[str, str, Tuple[str, ...], Check]

# relation instances that step upward use X first (need offset k+1);
# downward ones use Y or Y1 first (need offset k-1)
UP, DOWN = "up", "down"


@dataclass
class RelationReport:
    subject: str
    checked: int = 0
    violations: List[dict] = field(default_factory=list)
    skipped: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checked": self.checked,
            "violations": self.violations,
            "skipped": self.skipped,
        }


def _column(m: Mat, j: int) -> List[str]:
    show = m.ctx.show
    return [show(m.data[i][j]) for i in range(m.rows)]


def check_relations(V: WeightModule, algebra, *, reading: Optional[str] = None) -> RelationReport:
    """Verify the defining relations of D, A_q, or A_1 on the module.

    With reading set to an operator name, only the relations that read that
    operator are checked; extend_to_D re-checks the operator it solved for
    this way.
    """
    algebra = as_subalgebra(algebra)
    for name in op_names_for(algebra):
        if not V.has_op(name):
            raise ValueError(f"module lacks operator {name} required by {algebra.value}")
    rels = _relations(V, algebra)
    if reading is not None:
        rels = [r for r in rels if reading in r[2]]

    report = RelationReport(subject=algebra.value)
    lo, hi = (None, None) if V.circular else V.window
    for k in V.offsets():
        for rel_id, direction, _, check in rels:
            if not V.circular:
                if direction == UP and k == hi:
                    report.skipped.append({"relation": rel_id, "offset": k, "reason": "window-edge"})
                    continue
                if direction == DOWN and k == lo:
                    report.skipped.append({"relation": rel_id, "offset": k, "reason": "window-edge"})
                    continue
            report.checked += 1
            sides = check(k)
            if sides is None:
                continue
            computed, expected = sides
            if computed != expected:
                labels = V.label_list(k)
                for j in range(computed.cols):
                    if computed.col(j) != expected.col(j):
                        report.violations.append(
                            {
                                "relation": rel_id,
                                "offset": k,
                                "label": labels[j],
                                "computed": _column(computed, j),
                                "expected": _column(expected, j),
                            }
                        )
    return report


def _relations(V: WeightModule, algebra) -> List[Relation]:
    """The algebra's relation rows on V, sorted by id."""
    ctx = V.ctx
    one, q = ctx.one, ctx.q
    ops = V.ops
    offsets = V.offsets()
    dim = {k: V.dim(k) for k in offsets}
    up = {k: V.op_target("X", k) for k in offsets}
    dn = {k: V.op_target("Y", k) for k in offsets}
    # c for each block that is c 1, else None: one scalar_value per block
    cval = {name: {k: m.scalar_value() for k, m in ops[name].items()} for name in op_names_for(algebra)}

    # tau and sigma at every offset, their images a + 1 and q b under
    # alpha^-1 where X starts, and the PRODUCTS scalars on first use: each
    # evaluated once in this call
    point = {k: (V.tau_scalar(k), V.sigma_scalar(k)) for k in offsets}
    raised = {k: (point[k][0] + one, q * point[k][1]) for k in V.op_sources("X")}
    values: Dict[tuple, Fel] = {}

    def value(f, k: int) -> Fel:
        key = (f, k)
        v = values.get(key)
        if v is None:
            v = values[key] = f(ctx, *point[k])
        return v

    def product(S: str, s: int, T: str, t: int, f, k: int) -> Optional[Tuple[Mat, Mat]]:
        # S_s T_t = f(k) 1 on V_k, decided on the entries when both are c 1
        n = dim[k]
        if not n:
            return None
        A, B, a, b = ops[S][s], ops[T][t], cval[S][s], cval[T][t]
        P = None if a is not None and b is not None else A * B
        c = a * b if P is None else P.scalar_value()
        if c is not None and c == value(f, k):
            return None
        return A * B if P is None else P, Mat.scalar(ctx, n, value(f, k))

    def twist(M: Mat, c1: Fel, c2: Fel) -> Optional[Tuple[Mat, Mat]]:
        # M c1 = c2 M, scaled only when c1 != c2
        return None if c1 == c2 else (M.scale(c1), M.scale(c2))

    def lowering(T: str) -> List[Relation]:
        # T X and X T from the table, and the laws T f = alpha^-1(f) T for
        # f = tau, sigma, whose right side is read one offset down
        rel, blocks = PRODUCTS[T], ops[T]

        def law(i: int) -> Check:
            return lambda k: twist(blocks[k], point[k][i], raised[dn[k]][i])

        return [
            (rel.tx_id, UP, (T, "X"), lambda k: product(T, up[k], "X", k, rel.tx, k)),
            (rel.xt_id, DOWN, ("X", T), lambda k: product("X", dn[k], T, k, rel.xt, k)),
            (f"{T}tau=alphainv(tau){T}", DOWN, (T,), law(0)),
            (f"{T}sigma=alphainv(sigma){T}", DOWN, (T,), law(1)),
        ]

    lowered = [T for T in op_names_for(algebra) if T in PRODUCTS]
    rels = [r for T in lowered for r in lowering(T)]
    if len(lowered) == 2:
        # the mixed relation Y1 (X Y) = Y (X Y1)
        def mixed(k: int) -> Optional[Tuple[Mat, Mat]]:
            xy, xy1 = value(PRODUCTS["Y"].xt, k), value(PRODUCTS["Y1"].xt, k)
            a, b = cval["Y1"][k], cval["Y"][k]
            if a is not None and b is not None and a * xy == b * xy1:
                return None
            return ops["Y1"][k].scale(xy), ops["Y"][k].scale(xy1)

        rels.append((MIXED_ID, DOWN, ("Y1", "Y"), mixed))

    # X's laws X f = alpha(f) X close the list for every algebra; the right
    # side is read one offset up, and the scalars are tested as
    # alpha^-1(f) at k against f one offset up
    def x_law(i: int, alpha: Callable[[Fel], Fel]) -> Check:
        def check(k: int) -> Optional[Tuple[Mat, Mat]]:
            if raised[k][i] == point[up[k]][i]:
                return None
            return twist(ops["X"][k], point[k][i], alpha(point[up[k]][i]))

        return check

    rels += [
        ("Xtau=alpha(tau)X", UP, ("X",), x_law(0, lambda c: c - one)),
        ("Xsigma=alpha(sigma)X", UP, ("X",), x_law(1, lambda c: c / q)),
    ]
    rels.sort(key=lambda r: r[0])
    return rels


def polynomial_realization(ctx: FieldCtx, N: int) -> Tuple[Dict[str, Mat], RelationReport]:
    """Matrices of x, the two q-derivatives, the plain derivative, and sigma
    on polynomials of degree at most N, plus a relation report on degrees
    at most N-1 where truncation cannot interfere."""
    if not isinstance(N, int) or N < 2:
        raise ValueError("the degree bound N must be an integer >= 2")
    if (N + 1) ** 2 > MAX_CHAIN_ENTRIES:
        # each of the six matrices is dense (N+1) x (N+1): refuse before building one
        raise ValueError(
            f"the degree bound N = {N} needs {(N + 1) ** 2} entries per matrix, over the limit of {MAX_CHAIN_ENTRIES}"
        )
    q = ctx.q
    if q == ctx.one:
        raise ValueError("q = 1 makes the q-derivative denominators vanish")
    n_dim = N + 1

    def bracket(n: int, a: int) -> Fel:
        # (q^(a n) - 1) / (q^a - 1)
        return (q ** (a * n) - ctx.one) / (q ** a - ctx.one)

    x = Mat.zeros(ctx, n_dim, n_dim)
    for n in range(N):
        x.data[n + 1][n] = ctx.one
    d = Mat.zeros(ctx, n_dim, n_dim)
    for n in range(1, n_dim):
        d.data[n - 1][n] = ctx.from_int(n)
    d1 = Mat.zeros(ctx, n_dim, n_dim)
    dm1 = Mat.zeros(ctx, n_dim, n_dim)
    for n in range(1, n_dim):
        d1.data[n - 1][n] = bracket(n, 1)
        dm1.data[n - 1][n] = bracket(n, -1)
    sigma = Mat.zeros(ctx, n_dim, n_dim)
    sigma_inv = Mat.zeros(ctx, n_dim, n_dim)
    for n in range(n_dim):
        sigma.data[n][n] = q ** n
        sigma_inv.data[n][n] = q ** (-n)

    mats = {"x": x, "d1": d1, "d-1": dm1, "d": d, "sigma": sigma}
    ident = Mat.identity(ctx, n_dim)
    ds = {1: d1, -1: dm1, 0: d}

    checks: List[Tuple[str, Mat, Mat]] = []
    for a in (1, -1, 0):
        checks.append(
            (f"d[{a}]x-q^{a}xd[{a}]=1", ds[a] * x - (x * ds[a]).scale(q ** a), ident)
        )
    for a, b in ((1, -1), (1, 0), (-1, 0)):
        checks.append((f"d[{a}]xd[{b}]=d[{b}]xd[{a}]", ds[a] * x * ds[b], ds[b] * x * ds[a]))
    checks.append(("d[-1]d[1]=qd[1]d[-1]", dm1 * d1, (d1 * dm1).scale(q)))
    checks.append(("d[1]x-xd[1]=sigma", d1 * x - x * d1, sigma))
    checks.append(("sigma=(q-1)xd[1]+1", sigma, (x * d1).scale(q - ctx.one) + ident))
    checks.append(("d[-1]x-xd[-1]=sigmainv", dm1 * x - x * dm1, sigma_inv))
    checks.append(
        ("sigmainv=(1/q-1)xd[-1]+1", sigma_inv, (x * dm1).scale(q.inverse() - ctx.one) + ident)
    )
    checks.append(("d[-1]=sigmainv*d[1]", dm1, sigma_inv * d1))

    report = RelationReport(subject=f"realization(N={N})")
    for rel_id, lhs, rhs in checks:
        for n in range(N):
            report.checked += 1
            if lhs.col(n) != rhs.col(n):
                report.violations.append(
                    {
                        "relation": rel_id,
                        "degree": n,
                        "computed": _column(lhs, n),
                        "expected": _column(rhs, n),
                    }
                )
        report.skipped.append({"relation": rel_id, "degree": N, "reason": "truncation-edge"})
    return mats, report
