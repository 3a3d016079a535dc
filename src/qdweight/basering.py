"""Weight points, the shift alpha, and elements of R evaluated at points.

R = K[tau, sigma, sigma^{-1}] carries the automorphism alpha with
alpha(tau) = tau - 1 and alpha(sigma) = sigma / q.  A weight point (a, b)
stands for the maximal ideal (tau - a, sigma - b); b is nonzero because
sigma is invertible.  On points, alpha^k sends (a, b) to (a + k, q^k b).
Elements of R are only ever evaluated at points, so a LaurentPoly is just
its terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .fields import Fel, FieldCtx


@dataclass(frozen=True)
class WeightPoint:
    """The maximal ideal (tau - a, sigma - b) as the pair (a, b)."""

    a: Fel
    b: Fel

    def __post_init__(self):
        if not self.b:
            raise ValueError("sigma-coordinate of a weight point must be nonzero")

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


class LaurentPoly:
    """Element of K[tau, sigma, sigma^{-1}]: finitely many terms
    coeff * tau^i * sigma^j with i >= 0 and j any integer."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: Dict[Tuple[int, int], Fel]):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if v}
        for (i, _), _c in self.terms.items():
            if i < 0:
                raise ValueError("tau-degree must be nonnegative")


# named ring elements


def lp_tau(ctx: FieldCtx) -> LaurentPoly:
    return LaurentPoly(ctx, {(1, 0): ctx.one})


def lp_qsigma_minus_1(ctx: FieldCtx) -> LaurentPoly:
    """q*sigma - 1, the t-element of the A_q flavor."""
    return LaurentPoly(ctx, {(0, 1): ctx.q, (0, 0): -ctx.one})


# operations


def alpha_point(w: WeightPoint, k: int) -> WeightPoint:
    """The image of the point under alpha^k: (a, b) -> (a + k, q^k b)."""
    ctx = w.a.field
    return WeightPoint(w.a + k, (ctx.q ** k) * w.b)


def eval_at(f: LaurentPoly, w: WeightPoint) -> Fel:
    """Substitute tau -> a, sigma -> b."""
    ctx = f.ctx
    total = ctx.zero
    for (i, j), c in f.terms.items():
        total = total + c * (w.a ** i) * (w.b ** j)
    return total
