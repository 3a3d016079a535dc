"""The base ring R = K[tau, sigma, sigma^{-1}], its automorphism, and points.

R carries the automorphism alpha with alpha(tau) = tau - 1 and
alpha(sigma) = sigma / q.  A weight point (a, b) stands for the maximal ideal
(tau - a, sigma - b); b is nonzero because sigma is invertible.  On points,
alpha^k sends (a, b) to (a + k, q^k b).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return LaurentPoly(self.ctx, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: Dict[Tuple[int, int], Fel] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                prod = c1 * c2
                out[key] = out[key] + prod if key in out else prod
        return LaurentPoly(self.ctx, out)

    def scale(self, c: Fel) -> "LaurentPoly":
        return LaurentPoly(self.ctx, {k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*tau^{i}*sigma^{j}" for (i, j), c in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(bits) + ")"

    def to_json(self) -> list:
        return [[i, j, str(c)] for (i, j), c in sorted(self.terms.items())]

    @staticmethod
    def from_json(ctx: FieldCtx, data: list) -> "LaurentPoly":
        return LaurentPoly(ctx, {(int(i), int(j)): ctx.parse(c) for i, j, c in data})


# named ring elements


def lp_tau(ctx: FieldCtx) -> LaurentPoly:
    return LaurentPoly(ctx, {(1, 0): ctx.one})


def lp_sigma(ctx: FieldCtx, j: int = 1) -> LaurentPoly:
    return LaurentPoly(ctx, {(0, j): ctx.one})


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


def twist(f: LaurentPoly, k: int) -> LaurentPoly:
    """Apply the ring automorphism alpha^k to f.

    alpha^k(tau) = tau - k and alpha^k(sigma) = sigma / q^k, so each term
    c * tau^i * sigma^j expands binomially.  The compatible evaluation
    identity is eval_at(twist(f, k), alpha_point(w, k)) == eval_at(f, w):
    an automorphism applied to both the element and the point preserves the
    value.
    """
    ctx = f.ctx
    out: Dict[Tuple[int, int], Fel] = {}
    for (i, j), c in f.terms.items():
        scaled = c * (ctx.q ** (-k * j))
        for m in range(i + 1):
            coeff = scaled * (comb(i, m) * (-k) ** (i - m))
            if not coeff:
                continue
            key = (m, j)
            out[key] = out[key] + coeff if key in out else coeff
    return LaurentPoly(ctx, out)
