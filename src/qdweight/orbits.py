"""Orbits of weight points under alpha, and their break combinatorics.

A break for the A_q flavor is a point whose sigma-coordinate is q^{-1}
(where q*sigma - 1 vanishes); for the A_1 flavor one whose tau-coordinate is
0 (where tau vanishes).  Orbits are infinite exactly in characteristic zero
or when q has infinite order; otherwise they are circular of length
lcm(p, ord q).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import List, Optional, Tuple

from .fields import FieldCtx
from .basering import (
    LaurentPoly,
    WeightPoint,
    alpha_point,
    eval_at,
    lp_qsigma_minus_1,
    lp_tau,
)


class Subalgebra(Enum):
    AQ = "AQ"
    A1 = "A1"
    D = "D"


def t_element(ctx: FieldCtx, flavor: Subalgebra) -> LaurentPoly:
    """The defining t of a GWA flavor: q*sigma - 1 for AQ, tau for A1."""
    if flavor is Subalgebra.AQ:
        return lp_qsigma_minus_1(ctx)
    if flavor is Subalgebra.A1:
        return lp_tau(ctx)
    raise ValueError("t is defined only for the GWA flavors AQ and A1")


@dataclass(frozen=True)
class Orbit:
    base: WeightPoint
    length: Optional[int] = None  # None means infinite

    @property
    def circular(self) -> bool:
        return self.length is not None

    def point(self, k: int) -> WeightPoint:
        return alpha_point(self.base, k)

    def offset_of(self, point: WeightPoint, window: Optional[Tuple[int, int]] = None) -> int:
        """The alpha-offset of a point on this orbit; raises if absent."""
        if self.circular:
            lo, hi = 0, self.length - 1
        elif window is not None:
            lo, hi = window
        else:
            raise ValueError("an infinite orbit needs a search window")
        for k in range(lo, hi + 1):
            if self.point(k) == point:
                return k
        raise ValueError(f"point {point} is not on the orbit (searched [{lo},{hi}])")


def compute_orbit(base: WeightPoint, ctx: FieldCtx) -> Orbit:
    """INFINITE in characteristic 0 / infinite q-order, else CIRCULAR with
    the first-return length."""
    if ctx.characteristic == 0 or ctx.q_order() is None:
        return Orbit(base, None)
    r = 1
    cur = alpha_point(base, 1)
    while cur != base:
        cur = alpha_point(cur, 1)
        r += 1
    assert r == lcm(ctx.characteristic, ctx.q_order())
    return Orbit(base, r)


def breaks(
    orbit: Orbit,
    flavor: Subalgebra,
    window: Optional[Tuple[int, int]] = None,
) -> List[Tuple[int, WeightPoint]]:
    """All (offset, point) in range where the flavor's t vanishes.

    Circular orbits are scanned in full; infinite orbits need a window.
    """
    if flavor is Subalgebra.D:
        raise ValueError("breaks are defined per GWA flavor, not for D")
    ctx = orbit.base.a.field
    t = t_element(ctx, flavor)
    if orbit.circular:
        offsets = range(orbit.length)
    else:
        if window is None:
            raise ValueError("an infinite orbit needs a window to search for breaks")
        offsets = range(window[0], window[1] + 1)
    found = []
    for k in offsets:
        pt = orbit.point(k)
        if not eval_at(t, pt):
            found.append((k, pt))
    return found


def j_index(point: WeightPoint, orbit: Orbit, flavor: Subalgebra) -> int:
    """Break index of the first break at or after the point, cyclically.

    Breaks are numbered 0..m-1 by increasing offset from the base (the
    break with least nonnegative offset is number 0, the designated maximal
    break).  The point with offset o gets the index j of the nearest break
    with offset >= o, wrapping to 0 past the last break.
    """
    if not orbit.circular:
        raise ValueError("j-indexing requires a circular orbit")
    brks = breaks(orbit, flavor)
    if not brks:
        raise ValueError("orbit has no breaks for this flavor")
    o = orbit.offset_of(point)
    for idx, (bk, _) in enumerate(brks):
        if bk >= o:
            return idx
    return 0
