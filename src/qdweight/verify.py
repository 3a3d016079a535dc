"""Mechanical relation checking, and the polynomial-operator realization.

check_relations computes both sides of every defining relation as exact
matrices, offset by offset.  The product relations and the mixed relation
come from D's relation table, basering.PRODUCTS, one pair per lowering operator
of the algebra; each lowering operator also brings its two twist laws, and
X's two close the list.  A twist law M c1 = c2 M (an operator M moved
past tau or sigma) is decided on its scalars first: it holds outright when
c1 = c2, and only otherwise are both scaled matrices built and compared.
On windowed modules a relation instance is skipped exactly when one of its
operator applications would leave the window; everything else, including
zero-dimensional spaces inside the window, is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .basering import MIXED_ID, PRODUCTS
from .fields import Fel, FieldCtx
from .linalg import Mat
from .wmod import WeightModule, as_subalgebra, op_names_for

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


def check_relations(V: WeightModule, algebra) -> RelationReport:
    """Verify the defining relations of D, A_q, or A_1 on the module."""
    algebra = as_subalgebra(algebra)
    for name in op_names_for(algebra):
        if not V.has_op(name):
            raise ValueError(f"module lacks operator {name} required by {algebra.value}")
    ctx = V.ctx
    one, q = ctx.one, ctx.q

    def up(k: int) -> int:
        return V.op_target("X", k)

    def dn(k: int) -> int:
        return V.op_target("Y", k)

    tau, sigma = V.tau_scalar, V.sigma_scalar

    def scaled_id(f, k: int) -> Mat:
        return Mat.scalar(ctx, V.dim(k), V.scalar(f, k))

    # each relation: (id, direction, twist, build).  A product relation
    # builds k -> (computed, expected); a twist law M c1 = c2 M builds
    # k -> (M, c1, c2) and scales M only when c1 != c2.
    def lowering(T: str) -> List[Tuple[str, str, bool, Callable[[int], tuple]]]:
        # T X and X T from the table, and the laws moving T past tau and sigma
        rel = PRODUCTS[T]
        return [
            (rel.tx_id, UP, False, lambda k: (V.op(T, up(k)) * V.op("X", k), scaled_id(rel.tx, k))),
            (rel.xt_id, DOWN, False, lambda k: (V.op("X", dn(k)) * V.op(T, k), scaled_id(rel.xt, k))),
            (f"{T}tau=alphainv(tau){T}", DOWN, True, lambda k: (V.op(T, k), tau(k), tau(dn(k)) + one)),
            (f"{T}sigma=alphainv(sigma){T}", DOWN, True, lambda k: (V.op(T, k), sigma(k), q * sigma(dn(k)))),
        ]

    lowered = [T for T in op_names_for(algebra) if T in PRODUCTS]
    rels = [r for T in lowered for r in lowering(T)]
    if len(lowered) == 2:
        # the mixed relation Y1 (X Y) = Y (X Y1)
        def mixed(k: int) -> Tuple[Mat, Mat]:
            xy, xy1 = V.scalar(PRODUCTS["Y"].xt, k), V.scalar(PRODUCTS["Y1"].xt, k)
            return V.op("Y1", k).scale(xy), V.op("Y", k).scale(xy1)

        rels.append((MIXED_ID, DOWN, False, mixed))
    # X-twisting laws close the list for every algebra
    rels += [
        ("Xtau=alpha(tau)X", UP, True, lambda k: (V.op("X", k), tau(k), tau(up(k)) - one)),
        ("Xsigma=alpha(sigma)X", UP, True, lambda k: (V.op("X", k), sigma(k), sigma(up(k)) / q)),
    ]

    report = RelationReport(subject=algebra.value)
    offsets = V.offsets()
    lo, hi = (None, None) if V.circular else V.window
    rels.sort(key=lambda r: r[0])
    for k in offsets:
        for rel_id, direction, is_twist, build in rels:
            if not V.circular:
                if direction == UP and k == hi:
                    report.skipped.append({"relation": rel_id, "offset": k, "reason": "window-edge"})
                    continue
                if direction == DOWN and k == lo:
                    report.skipped.append({"relation": rel_id, "offset": k, "reason": "window-edge"})
                    continue
            report.checked += 1
            if is_twist:
                M, c1, c2 = build(k)
                if c1 == c2:
                    continue
                computed, expected = M.scale(c1), M.scale(c2)
            else:
                computed, expected = build(k)
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


def polynomial_realization(ctx: FieldCtx, N: int) -> Tuple[Dict[str, Mat], RelationReport]:
    """Matrices of x, the two q-derivatives, the plain derivative, and sigma
    on polynomials of degree at most N, plus a relation report on degrees
    at most N-1 where truncation cannot interfere."""
    if not isinstance(N, int) or N < 2:
        raise ValueError("the degree bound N must be an integer >= 2")
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
