"""Orbits of weight points under alpha, and their break combinatorics.

alpha^k sends (a, b) to (a + k, q^k b), so it fixes a point exactly when
k = 0 in the field and q^k = 1.  Over a finite field of characteristic p
every orbit is therefore circular of length lcm(p, ord q), computed in
closed form and capped at MAX_ORBIT_LENGTH before anything is built.  Every
infinite field kind has characteristic zero, where orbits are infinite.

Each GWA flavor keeps X and one lowering operator T, named in LOWERING,
and its t is T X from basering.PRODUCTS.  A break is a point where t
vanishes: for the A_q flavor (T = Y1, t = q*sigma - 1) a point whose
sigma-coordinate is q^{-1}; for the A_1 flavor (T = Y, t = tau) one whose
tau-coordinate is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import lcm
from typing import Dict, List, Optional, Tuple

from .fields import FieldCtx
from .basering import PRODUCTS, WeightPoint, alpha_point, eval_at


# the most offsets a module may have: the longest circular orbit and the
# widest window
MAX_ORBIT_LENGTH = 2**16


class Subalgebra(Enum):
    AQ = "AQ"
    A1 = "A1"
    D = "D"


# the lowering operator each GWA flavor keeps beside X
LOWERING = {Subalgebra.AQ: "Y1", Subalgebra.A1: "Y"}


@dataclass(frozen=True)
class Orbit:
    """The alpha-orbit of ``base``; points are computed once, on first use.

    Every module built on the orbit shares its point table, which stays out
    of equality, hashing and repr.
    """

    base: WeightPoint
    length: Optional[int] = None  # None means infinite
    _points: Dict[int, WeightPoint] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    @property
    def circular(self) -> bool:
        return self.length is not None

    def point(self, k: int) -> WeightPoint:
        """alpha^k(base), one alpha step from a stored neighbour when there is one."""
        pts = self._points
        pt = pts.get(k)
        if pt is None:
            if k - 1 in pts:
                pt = alpha_point(pts[k - 1], 1)
            elif k + 1 in pts:
                pt = alpha_point(pts[k + 1], -1)
            else:
                pt = alpha_point(self.base, k)
            pts[k] = pt
        return pt


def compute_orbit(base: WeightPoint, ctx: FieldCtx) -> Orbit:
    """Circular of length lcm(p, ord q) over a finite field, else infinite.

    Raises ValueError if the length is over MAX_ORBIT_LENGTH.
    """
    if not ctx.is_finite:
        return Orbit(base, None)
    r = lcm(ctx.characteristic, ctx.q_order())
    if r > MAX_ORBIT_LENGTH:
        raise ValueError(f"orbit length {r} is over the limit of {MAX_ORBIT_LENGTH}")
    return Orbit(base, r)


def breaks(
    orbit: Orbit,
    flavor: Subalgebra,
    window: Optional[Tuple[int, int]] = None,
) -> List[Tuple[int, WeightPoint]]:
    """All (offset, point) in range where the flavor's t = T X vanishes.

    Circular orbits are scanned in full; infinite orbits need a window.
    """
    if flavor is Subalgebra.D:
        raise ValueError("breaks are defined per GWA flavor, not for D")
    t = PRODUCTS[LOWERING[flavor]].tx
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


def j_index(offset: int, bks: List[Tuple[int, WeightPoint]]) -> int:
    """Break index of the first break at or after an offset, cyclically.

    ``bks`` is the break list of a circular orbit, as ``breaks`` returns it.
    Breaks are numbered 0..m-1 by increasing offset from the base (the
    break with least nonnegative offset is number 0, the designated maximal
    break).  The offset o gets the index j of the nearest break with
    offset >= o, wrapping to 0 past the last break.
    """
    if not bks:
        raise ValueError("orbit has no breaks for this flavor")
    for idx, (bk, _) in enumerate(bks):
        if bk >= offset:
            return idx
    return 0
