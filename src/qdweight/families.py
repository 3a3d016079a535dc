"""Catalog of named weight-module families over D.

Every family is one row of the table ``_FAMILIES``: its name, parameter
names, catalog text and how to build it.  The windowed line families and the
twisted circular families are pure data (a ``Line``) read by one
interpreter, ``_line_module``; the chain, two-row and fixture families keep
builder functions.  Generic line coefficients are read from D's product
relations, ``basering.PRODUCTS``, and each flavour's lowering operator from
``orbits.LOWERING``; the chain and two-row builders pass only their junction
blocks to ``wmod.junction_module``, which fills in the rest.
Constructors validate their side conditions up front and evaluate
coefficient formulas lazily, so a bad denominator reports the offending
offset.  They do not re-check the defining relations; that is
check_relations' job, and some entries fail it on purpose: the
half-infinite ray families carry a junction parameter whose general
position breaks one relation instance (the catalog notes the safe locus),
and REMARK_136 is a frozen fixture that violates Y1X = q*sigma - 1 at its
top step by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from .basering import PRODUCTS, WeightPoint
from .fields import Fel, FieldCtx
from .linalg import Mat
from .orbits import LOWERING, Orbit, Subalgebra, breaks, compute_orbit
from .wmod import OP_NAMES, OP_STEP, WeightModule, check_width, junction_module

# a chain module stores 3 r m^2 matrix entries (X, Y and Y1 on r offsets of
# dimension m); larger ones are refused before any block is built
MAX_CHAIN_ENTRIES = 2**16


def _norm_param(value):
    if isinstance(value, bool):
        raise ValueError("family parameters must be numbers, strings, or lists")
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (Fel, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return tuple(_norm_param(v) for v in value)
    raise ValueError(f"unsupported family parameter {value!r}")


class FamilyId:
    """A family name plus its parameter values.

    Field-element parameters are stored as strings in the field's text
    encoding (ints pass through), so an id is field-independent data that
    serializes cleanly.
    """

    __slots__ = ("name", "params")

    def __init__(self, name: str, params: Optional[dict] = None):
        name = str(name).upper()
        if name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {name!r}")
        self.name = name
        self.params = {str(k): _norm_param(v) for k, v in (params or {}).items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FamilyId)
            and self.name == other.name
            and self.params == other.params
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"FamilyId({self.name}{', ' + inner if inner else ''})"

    def to_json(self) -> dict:
        def plain(v):
            return list(v) if isinstance(v, tuple) else v

        return {"name": self.name, "params": {k: plain(v) for k, v in self.params.items()}}

    @staticmethod
    def from_json(raw: dict) -> "FamilyId":
        return FamilyId(raw["name"], raw.get("params") or {})


# ---------------------------------------------------------------------------
# shared machinery


def _take(params: dict, *keys: str) -> list:
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"missing family parameter(s): {', '.join(missing)}")
    extra = sorted(set(params) - set(keys))
    if extra:
        raise ValueError(f"unexpected family parameter(s): {', '.join(extra)}")
    return [params[k] for k in keys]


def _fel(ctx: FieldCtx, raw) -> Fel:
    if isinstance(raw, Fel):
        if raw.field != ctx:
            raise ValueError("parameter element belongs to a different field")
        return raw
    if isinstance(raw, int):
        return ctx.from_int(raw)
    return ctx.parse(str(raw))


def _is_fraction_power(q: Fraction, b: Fraction) -> bool:
    # q is rational with |q| not 0 or 1, so |q^i| is strictly monotone in i.
    if not b:
        return False
    if b == 1:
        return True
    big = q if abs(q) > 1 else 1 / q
    x = big
    while abs(x) <= abs(b):
        if x == b:
            return True
        x *= big
    x = 1 / big
    while abs(x) >= abs(b):
        if x == b:
            return True
        x /= big
    return False


def _is_q_power(ctx: FieldCtx, b: Fel) -> bool:
    """Whether b = q^i for some integer i.  Exact and decidable per field kind."""
    n = ctx.q_order()
    if n is not None:
        x = ctx.one
        for _ in range(n):
            if b == x:
                return True
            x = x * ctx.q
        return False
    if ctx.spec.kind == "RATIONAL":
        return _is_fraction_power(Fraction(*ctx.q.val), Fraction(*b.val))
    # FUNCTION_FIELD with q = t: the degree pins the only possible exponent.
    num, den = b.val
    if not num:
        return False
    i = (len(num) - 1) - (len(den) - 1)
    return b == ctx.q ** i


def _is_int_scalar(ctx: FieldCtx, a: Fel) -> bool:
    """Whether a lies in the image of the integers in the field."""
    if ctx.characteristic:
        # the image of Z is the prime subfield, which Frobenius fixes exactly
        return a ** ctx.characteristic == a
    kind = ctx.spec.kind
    # RATIONAL (n, d), CYCLOTOMIC (coeffs, den) and FUNCTION_FIELD (N, D) are
    # canonical: the denominator is coprime to the numerator or content, so
    # an integer has it equal to 1
    if kind == "RATIONAL":
        return a.val[1] == 1
    if kind == "CYCLOTOMIC":
        coeffs, den = a.val
        return len(coeffs) <= 1 and den == 1
    num, den = a.val
    return len(num) <= 1 and den == (1,)


def _take_window(orbit: Orbit, window, name: str) -> Tuple[int, int]:
    if orbit.circular:
        raise ValueError(f"{name} needs an infinite weight orbit, but this one is circular")
    if window is None:
        raise ValueError(f"{name} lives on an infinite orbit and needs a window")
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError("empty window")
    check_width(lo, hi)
    return lo, hi


def _no_window(orbit: Orbit, window, name: str) -> None:
    if not orbit.circular:
        raise ValueError(
            f"{name} needs a circular weight orbit (positive characteristic, q of finite order)"
        )
    if window is not None:
        raise ValueError(f"{name} is circular and takes no window")


# ---------------------------------------------------------------------------
# line families: one-dimensional weight spaces along one orbit

# A guard is a test that rejects the field or the parameter values, and what
# the family needs instead; the error reads "<family> <needs ...>".  Like
# basering.Scalar, the alias exists for the type checker only.
if TYPE_CHECKING:
    Guard = Tuple[Callable[[FieldCtx, Dict[str, Fel]], bool], str]

_INFINITE_Q: Guard = (
    lambda ctx, v: ctx.q_order() is not None,
    "needs q of infinite multiplicative order",
)
_CHAR_0: Guard = (lambda ctx, v: ctx.characteristic != 0, "needs a field of characteristic 0")
_F_NONZERO: Guard = (lambda ctx, v: not v["f"], "needs f nonzero")


def _check(name: str, guard: Guard, ctx: FieldCtx, values: Dict[str, Fel]) -> None:
    rejects, need = guard
    if rejects(ctx, values):
        raise ValueError(f"{name} {need}")


def _generic(flavour: Subalgebra) -> Dict[str, Tuple[Scalar, Optional[Scalar]]]:
    """The generic coefficients of a flavour with lowering operator T, as
    (numerator, denominator) at the point of offset k, None meaning no
    denominator: X carries T X, T acts by 1, and the other lowering
    operator U by (X U)/(X T)."""
    T = LOWERING[flavour]
    (U,) = PRODUCTS.keys() - {T}
    coeffs = {
        "X": (PRODUCTS[T].tx, None),
        T: (lambda ctx, a, b: ctx.one, None),
        U: (PRODUCTS[U].xt, PRODUCTS[T].xt),
    }
    return {name: coeffs[name] for name in OP_NAMES}


# the coordinate whose breaks a twisted circular family must avoid
_SIDE = {Subalgebra.AQ: "sigma", Subalgebra.A1: "tau"}

# an override keeping the generic numerator where the denominator vanishes
_NUMERATOR = object()


@dataclass(frozen=True)
class Line:
    """A family with one-dimensional weight spaces v_k along one orbit.

    The base point is (tau, sigma * q^shift), where tau and sigma name
    parameters and None stands for 0 and 1 respectively.  The support is
    the offsets k with lo <= k <= hi.  Coefficients are the flavour's
    generic ones, except that ``at[k][op]`` sets op at offset k to an int
    constant, a parameter (by name) or _NUMERATOR.  In a circular family
    the parameter named ``wrap`` twists the step across the wrap: X there
    is multiplied by f, Y and Y1 there are divided by f.
    """

    flavour: Subalgebra
    guard: Guard
    tau: Optional[str] = None
    sigma: Optional[str] = None
    shift: int = 0
    support: Tuple[float, float] = (-inf, inf)
    at: Dict[int, Dict[str, object]] = field(default_factory=dict)
    wrap: Optional[str] = None


def _line_module(fam: "Family", ctx: FieldCtx, window, raw: list) -> WeightModule:
    """Interpret a Line row: check it, then fill in its coefficients.

    Coefficients are evaluated lazily and only where both endpoint spaces
    are supported, so a formula's division by zero names its offset.
    """
    line = fam.build
    values = {k: _fel(ctx, x) for k, x in zip(fam.params, raw)}
    _check(fam.name, line.guard, ctx, values)
    tau = values[line.tau] if line.tau else ctx.zero
    sigma = (values[line.sigma] if line.sigma else ctx.one) * ctx.q ** line.shift
    orbit = compute_orbit(WeightPoint(tau, sigma), ctx)
    if fam.kind == "circular":
        _no_window(orbit, window, fam.name)
        if breaks(orbit, line.flavour):
            raise ValueError(f"{fam.name} needs an orbit with no {_SIDE[line.flavour]}-side breaks")
        offsets = range(orbit.length)
    else:
        window = _take_window(orbit, window, fam.name)
        offsets = range(window[0], window[1] + 1)
    lo, hi = line.support
    points = {k: orbit.point(k) for k in offsets if lo <= k <= hi}
    named = {0: ctx.zero, 1: ctx.one, **values}
    ops: Dict[str, Dict[int, Mat]] = {}
    for name, (num, den) in _generic(line.flavour).items():
        step = OP_STEP[name]
        table: Dict[int, Mat] = {}
        for k, pt in points.items():
            tgt = k + step
            if orbit.circular:
                tgt %= orbit.length
            if tgt not in points:
                continue
            fixed = line.at.get(k, {}).get(name)
            try:
                if fixed is None or fixed is _NUMERATOR:
                    val = num(ctx, pt.a, pt.b)
                    if fixed is None and den is not None:
                        val = val / den(ctx, pt.a, pt.b)
                else:
                    val = named[fixed]
                if line.wrap and tgt != k + step:
                    val = val * values[line.wrap] ** step
            except ZeroDivisionError:
                raise ValueError(f"{name} coefficient divides by zero at offset {k}") from None
            table[k] = Mat(ctx, [[val]])
        ops[name] = table
    labels = {k: (f"v{k}",) for k in points}
    return WeightModule(ctx, orbit, window, labels, ops)


# ---------------------------------------------------------------------------
# the families that keep a builder function


def _parse_word(raw) -> Tuple[str, ...]:
    if isinstance(raw, str):
        text = raw.strip()
        if "," in text or " " in text:
            parts = [p for p in text.replace(",", " ").split() if p]
        else:
            # compact form like "YY1Y": a Y followed by 1 is Y1
            parts = []
            i = 0
            while i < len(text):
                if text[i : i + 2] == "Y1":
                    parts.append("Y1")
                    i += 2
                else:
                    parts.append(text[i])
                    i += 1
    else:
        parts = [str(p) for p in raw]
    word = tuple(p.upper() for p in parts)
    for letter in word:
        if letter not in ("Y", "Y1"):
            raise ValueError(f"word letters must be Y or Y1, got {letter!r}")
    return word


def _chain_cycle(ctx: FieldCtx, window, m_raw, word_raw, a_raw) -> WeightModule:
    m = int(m_raw)
    if m < 1:
        raise ValueError("CHAIN_CYCLE needs m >= 1")
    word = _parse_word(word_raw)
    if len(word) != m:
        raise ValueError(f"word length {len(word)} does not match m = {m}")
    avals = a_raw if isinstance(a_raw, (list, tuple)) else (a_raw,)
    if len(avals) != m:
        raise ValueError(f"{len(avals)} junction parameters for m = {m}")
    a = [_fel(ctx, v) for v in avals]
    if not all(a):
        raise ValueError("CHAIN_CYCLE needs every a_i nonzero")
    orbit = compute_orbit(WeightPoint(ctx.one, ctx.one), ctx)
    _no_window(orbit, window, "CHAIN_CYCLE")
    r = orbit.length
    entries = 3 * r * m * m
    if entries > MAX_CHAIN_ENTRIES:
        raise ValueError(f"CHAIN_CYCLE would store {entries} matrix entries, over the limit of {MAX_CHAIN_ENTRIES}")
    # junction blocks at offset 0 (wrapping down to offset r-1): component
    # j closes through its own letter with eigenvalue a_j and feeds the other
    # lowering operator into component j+1
    blocks = {T: [[ctx.zero] * m for _ in range(m)] for T in ("Y", "Y1")}
    for j, letter in enumerate(word):
        blocks[letter][j][j] = a[j]
        if m > 1:
            blocks["Y1" if letter == "Y" else "Y"][(j + 1) % m][j] = ctx.one
    names = tuple(f"e{i + 1}" for i in range(m))
    labels = {k: (f"v{k}",) if m == 1 else names for k in range(r)}
    y, y1 = (Mat(ctx, blocks[T]) for T in ("Y", "Y1"))
    return junction_module(ctx, orbit, None, labels, r - 1, Mat.zeros(ctx, m, m), y, y1)


def _chain_alt(ctx: FieldCtx, window, m_raw, a_raw) -> WeightModule:
    m = int(m_raw)
    if m < 2 or m % 2:
        raise ValueError("CHAIN_ALT needs an even m >= 2")
    word = tuple("Y" if i % 2 == 0 else "Y1" for i in range(m))
    return _chain_cycle(ctx, window, m, word, a_raw)


def _vcd_tworow(ctx: FieldCtx, window, c_raw, d_raw) -> WeightModule:
    c, d = _fel(ctx, c_raw), _fel(ctx, d_raw)
    _check("VCD_TWOROW", _CHAR_0, ctx, {})
    orbit = compute_orbit(WeightPoint(ctx.zero, 1 / ctx.q), ctx)
    lo, hi = _take_window(orbit, window, "VCD_TWOROW")
    labels = {k: (f"u{k}", f"w{k}") if k <= 0 else (f"v{k}",) for k in range(lo, hi + 1)}
    y, y1 = Mat(ctx, [[c], [ctx.zero]]), Mat(ctx, [[ctx.zero], [d]])
    return junction_module(ctx, orbit, (lo, hi), labels, 0, Mat.zeros(ctx, 1, 2), y, y1)


def _remark_136(ctx: FieldCtx, window) -> WeightModule:
    if ctx.characteristic != 3 or ctx.q_order() != 2:
        raise ValueError("REMARK_136 needs characteristic 3 with q of multiplicative order 2")
    if window is not None:
        raise ValueError("REMARK_136 is circular and takes no window")
    orbit = compute_orbit(WeightPoint(ctx.one, ctx.one), ctx)
    labels = {0: ("v1",), 1: ("v2",), 2: ("v3",)}
    ops = {
        "X": {0: Mat(ctx, [[ctx.one]]), 1: Mat(ctx, [[ctx.one]])},
        "Y": {1: Mat(ctx, [[ctx.one]]), 2: Mat(ctx, [[ctx.from_int(2)]])},
        "Y1": {1: Mat(ctx, [[ctx.q - 1]]), 2: Mat(ctx, [[ctx.zero]])},
    }
    return WeightModule(ctx, orbit, None, labels, ops)


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class Family:
    """One row of the family table: the catalog entry and how to build it.

    ``kind`` is "windowed" (an infinite orbit, cut to a window) or
    "circular"; a Line row checks the window by it.  ``build`` is a Line,
    or a function called as ``build(ctx, window, *values)`` with the raw
    parameter values in ``params`` order.
    """

    name: str
    params: Tuple[str, ...]
    kind: str
    summary: str
    side_conditions: Tuple[str, ...]
    support: str
    build: Union[Line, Callable[..., WeightModule]]


_FAMILIES: Dict[str, Family] = {
    fam.name: fam
    for fam in (
        Family(
            "VQ_B_A",
            ("b", "a"),
            "windowed",
            summary="One-dimensional weight spaces along the full orbit of (a, b); "
            "X acts by q^{k+1}b - 1, Y1 by 1, Y by (a+k-1)/(q^k b - 1).",
            side_conditions=("b outside the q-power chain {q^i} (no sigma-side breaks)",),
            support="every offset of the window",
            build=Line(
                Subalgebra.AQ,
                (
                    lambda ctx, v: _is_q_power(ctx, v["b"]),
                    "needs b outside the q-power chain {q^i}",
                ),
                tau="a",
                sigma="b",
            ),
        ),
        Family(
            "VQ_JJ_1",
            ("a",),
            "windowed",
            summary="Junction family on the orbit of (a, 1/q): the sigma-side break at "
            "offset 0 is crossed by setting X v0 = v1, with Y v1 = a v0 and Y1 v1 = 0.",
            side_conditions=("q of infinite multiplicative order",),
            support="every offset of the window",
            build=Line(
                Subalgebra.AQ,
                _INFINITE_Q,
                tau="a",
                shift=-1,
                at={0: {"X": 1}, 1: {"Y": "a", "Y1": 0}},
            ),
        ),
        Family(
            "VQ_JJ_CD",
            ("c", "d"),
            "windowed",
            summary="Two-parameter junction family on the double break orbit of (0, 1/q): "
            "X v0 = 0 while Y v1 = d v0 and Y1 v1 = c v0.",
            side_conditions=("q of infinite multiplicative order",),
            support="every offset of the window",
            build=Line(Subalgebra.AQ, _INFINITE_Q, shift=-1, at={1: {"Y": "d", "Y1": "c"}}),
        ),
        Family(
            "VQ_JJ_3",
            ("a",),
            "windowed",
            summary="Downward ray ending at the sigma-side break of (a, 1/q): "
            "support on offsets <= 0 with the generic coefficients.",
            side_conditions=(
                "q of infinite multiplicative order",
                "passes the relation check at the ray end only when a = 0",
            ),
            support="offsets <= 0",
            build=Line(Subalgebra.AQ, _INFINITE_Q, tau="a", shift=-1, support=(-inf, 0)),
        ),
        Family(
            "VQ_JJ_4",
            ("a",),
            "windowed",
            summary="Upward ray starting just above the sigma-side break of (a, 1/q): "
            "support on offsets >= 1 with the generic coefficients.",
            side_conditions=(
                "q of infinite multiplicative order",
                "passes the relation check at the ray start only when a = 0",
            ),
            support="offsets >= 1",
            build=Line(Subalgebra.AQ, _INFINITE_Q, tau="a", shift=-1, support=(1, inf)),
        ),
        Family(
            "VQ_F_B_A",
            ("f", "b", "a"),
            "circular",
            summary="Circular family twisted by f: X carries the wrap step with an extra "
            "factor f, Y1 v0 = (1/f) v_{r-1}, Y determined by YX = tau.",
            side_conditions=(
                "circular orbit (positive characteristic, q of finite order)",
                "no sigma-side breaks on the orbit",
                "f nonzero",
            ),
            support="every offset of the length-r orbit",
            build=Line(Subalgebra.AQ, _F_NONZERO, tau="a", sigma="b", wrap="f"),
        ),
        Family(
            "V1_A_B",
            ("a", "b"),
            "windowed",
            summary="One-dimensional weight spaces along the full orbit of (a, b); "
            "X acts by a+k, Y by 1, Y1 by (q^k b - 1)/(a+k-1).",
            side_conditions=("a outside the integer chain Z*1 (no tau-side breaks)",),
            support="every offset of the window",
            build=Line(
                Subalgebra.A1,
                (
                    lambda ctx, v: _is_int_scalar(ctx, v["a"]),
                    "needs a outside the integer chain Z*1",
                ),
                tau="a",
                sigma="b",
            ),
        ),
        Family(
            "V1_JJ_1",
            ("b",),
            "windowed",
            summary="Junction family on the orbit of (0, b): the tau-side break at "
            "offset 0 is crossed by X v0 = v1, with Y1 v1 = (qb-1) v0 and Y v1 = 0.",
            side_conditions=("characteristic 0",),
            support="every offset of the window",
            build=Line(
                Subalgebra.A1,
                _CHAR_0,
                sigma="b",
                at={0: {"X": 1}, 1: {"Y": 0, "Y1": _NUMERATOR}},
            ),
        ),
        Family(
            "V1_JJ_CD",
            ("c", "d"),
            "windowed",
            summary="Two-parameter junction family on the double break orbit of (0, 1/q): "
            "X v0 = 0 while Y v1 = c v0 and Y1 v1 = d v0.",
            side_conditions=("characteristic 0",),
            support="every offset of the window",
            build=Line(Subalgebra.A1, _CHAR_0, shift=-1, at={1: {"Y": "c", "Y1": "d"}}),
        ),
        Family(
            "V1_JJ_3",
            ("b",),
            "windowed",
            summary="Downward ray ending at the tau-side break of (0, b): "
            "support on offsets <= 0 with the generic coefficients.",
            side_conditions=(
                "characteristic 0",
                "passes the relation check at the ray end only when b = 1/q",
            ),
            support="offsets <= 0",
            build=Line(Subalgebra.A1, _CHAR_0, sigma="b", support=(-inf, 0)),
        ),
        Family(
            "V1_JJ_4",
            ("b",),
            "windowed",
            summary="Upward ray starting just above the tau-side break of (0, b/q): "
            "support on offsets >= 1, with sigma value b at the first supported offset.",
            side_conditions=(
                "characteristic 0",
                "passes the relation check at the ray start only when b = 1",
            ),
            support="offsets >= 1",
            build=Line(Subalgebra.A1, _CHAR_0, sigma="b", shift=-1, support=(1, inf)),
        ),
        Family(
            "V1_F_A_B",
            ("f", "a", "b"),
            "circular",
            summary="Circular family twisted by f: X carries the wrap step with an extra "
            "factor f, Y v0 = (1/f) v_{r-1}, Y1 determined by Y1 X = q sigma - 1.",
            side_conditions=(
                "circular orbit (positive characteristic, q of finite order)",
                "no tau-side breaks on the orbit",
                "f nonzero",
            ),
            support="every offset of the length-r orbit",
            build=Line(Subalgebra.A1, _F_NONZERO, tau="a", sigma="b", wrap="f"),
        ),
        Family(
            "CHAIN_CYCLE",
            ("m", "word", "a"),
            "circular",
            summary="m chained copies of the circular module on the orbit of (1, 1): at "
            "the wrap step component j closes through its word letter with eigenvalue a_j "
            "and feeds the other lowering operator into component j+1.",
            side_conditions=(
                "circular orbit (positive characteristic, q of finite order)",
                "word over {Y, Y1} of length m",
                "every a_i nonzero",
            ),
            support="every offset, dimension m (total dimension r*m)",
            build=_chain_cycle,
        ),
        Family(
            "CHAIN_ALT",
            ("m", "a"),
            "circular",
            summary="CHAIN_CYCLE with the alternating word Y, Y1, Y, Y1, ...",
            side_conditions=(
                "m even and >= 2",
                "circular orbit (positive characteristic, q of finite order)",
                "every a_i nonzero",
            ),
            support="every offset, dimension m (total dimension r*m)",
            build=_chain_alt,
        ),
        Family(
            "VCD_TWOROW",
            ("c", "d"),
            "windowed",
            summary="Two parallel downward rays meeting one upward ray at the double "
            "break of (0, 1/q): Y v1 = c u0 and Y1 v1 = d w0 tie the rays together.",
            side_conditions=("characteristic 0",),
            support="dimension 2 at offsets <= 0, dimension 1 at offsets >= 1",
            build=_vcd_tworow,
        ),
        Family(
            "REMARK_136",
            (),
            "circular",
            summary="Frozen three-step fixture on the length-6 orbit of (1, 1): fails "
            "Y1 X = q sigma - 1 at its top step by construction and exists to exercise "
            "the relation checker.",
            side_conditions=("characteristic 3", "q of multiplicative order 2"),
            support="offsets 0, 1, 2 of the length-6 orbit",
            build=_remark_136,
        ),
    )
}

FAMILY_NAMES = tuple(_FAMILIES)


def construct_family(fid, ctx: FieldCtx, window=None) -> WeightModule:
    """Build the named family over ctx; the window applies to infinite orbits."""
    if isinstance(fid, str):
        fid = FamilyId(fid)
    elif isinstance(fid, dict):
        fid = FamilyId.from_json(fid)
    elif not isinstance(fid, FamilyId):
        raise ValueError(f"not a family id: {fid!r}")
    fam = _FAMILIES[fid.name]
    values = _take(dict(fid.params), *fam.params)
    if isinstance(fam.build, Line):
        return _line_module(fam, ctx, window, values)
    return fam.build(ctx, window, *values)


def list_families() -> List[dict]:
    """The stable catalog: name, parameter names, summary, and side conditions."""
    return [
        {
            "name": fam.name,
            "params": list(fam.params),
            "summary": fam.summary,
            "side_conditions": list(fam.side_conditions),
            "support": fam.support,
            "kind": fam.kind,
        }
        for fam in _FAMILIES.values()
    ]
