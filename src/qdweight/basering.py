"""Weight points, the shift alpha, and elements of R evaluated at points.

R = K[tau, sigma, sigma^{-1}] carries the automorphism alpha with
alpha(tau) = tau - 1 and alpha(sigma) = sigma / q.  A weight point (a, b)
stands for the maximal ideal (tau - a, sigma - b); b is nonzero because
sigma is invertible.  On points, alpha^k sends (a, b) to (a + k, q^k b).
Elements of R are only ever evaluated at points, so one is a Scalar, a
function of (ctx, tau, sigma).  PRODUCTS states D's product relations once
as such scalars; for each lowering operator T, its T X is the t of the
generalized Weyl algebra that keeps X and T, and a break of that algebra is
a point where t vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    # typing caches a subscripted alias with its arguments, which would keep
    # this package's classes alive after a re-import replaced them
    from typing import Callable

    from .fields import Fel, FieldCtx

    # an element of R at a weight point: (ctx, tau, sigma) -> scalar
    Scalar = Callable[[FieldCtx, Fel, Fel], Fel]


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


class Products(NamedTuple):
    """X with one lowering operator T: T X acts on the space at X's source
    offset by tx, X T on the space at T's source offset by xt, each read at
    that offset's point."""

    tx_id: str
    tx: Scalar
    xt_id: str
    xt: Scalar


# D's product relations: YX = tau, XY = tau - 1, Y1X = q sigma - 1 and
# XY1 = sigma - 1, the - 1 added as the context's stored -1.  The mixed
# relation Y1 (tau - 1) = Y (sigma - 1) is Y1 (X Y) = Y (X Y1).
PRODUCTS = {
    "Y": Products("YX=tau", lambda ctx, a, b: a, "XY=alpha(tau)", lambda ctx, a, b: a + ctx.minus_one),
    "Y1": Products("Y1X=qsigma-1", lambda ctx, a, b: ctx.q * b + ctx.minus_one,
                   "XY1=alpha(qsigma-1)", lambda ctx, a, b: b + ctx.minus_one),
}
MIXED_ID = "Y1(tau-1)=Y(sigma-1)"


def alpha_point(w: WeightPoint, k: int) -> WeightPoint:
    """The image of the point under alpha^k: (a, b) -> (a + k, q^k b)."""
    ctx = w.a.field
    return WeightPoint(w.a + k, (ctx.q ** k) * w.b)


def eval_at(f: Scalar, w: WeightPoint) -> Fel:
    """Substitute tau -> a, sigma -> b."""
    return f(w.a.field, w.a, w.b)
