"""Exact coefficient fields with a distinguished unit q.

Five field kinds cover everything the library needs:

  RATIONAL        plain rationals, q given as a nonzero rational
  CYCLOTOMIC(n)   rationals extended by a primitive n-th root of unity; q is
                  the root itself, so q has multiplicative order exactly n
  FUNCTION_FIELD  rational functions in one indeterminate t over the
                  rationals; q = t is transcendental
  PRIME_FIELD     integers mod p, q a nonzero residue
  EXT_FIELD       GF(p^k) as residues mod an irreducible monic polynomial f,
                  q a nonzero residue; arithmetic on log/Zech tables

Values, each in one canonical form:

  RATIONAL        ``(n, d)``: two ints, d > 0 and gcd(n, d) = 1
  CYCLOTOMIC(n)   ``(coeffs, den)``: int coefficients of the residue over one
                  positive int denominator, gcd(content, den) = 1
  FUNCTION_FIELD  ``(N, D)``: int coefficients of numerator and denominator,
                  gcd(N, D) = 1 in Q[t], joint content 1, lc(D) > 0
  PRIME_FIELD     the int residue 0..p-1
  EXT_FIELD       the int c_0 + c_1 p + ... of the residue's coefficients

The three characteristic-0 kinds compute on ints only; ``parse`` reads a
plain ``n`` or ``n/d`` coefficient with ``int``, hands every other text to
``Fraction``, and refuses exponent notation.  Finite fields have
at most MAX_FIELD_ORDER elements, each interned once, and cyclotomic orders
are at most MAX_CYCLOTOMIC_ORDER.

Every element has a unique canonical form and a canonical text encoding that
round-trips through ``parse``/``show``.  Elements are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul as mul_int
from typing import Iterator, List, Optional, Sequence, Tuple

# largest number of elements of a finite field: its tables and interned
# elements are built up front
MAX_FIELD_ORDER = 2**16

# largest cyclotomic order n: an inverse in Q(zeta_n) multiplies residues of
# degree phi(n); for n up to 1024 one takes under a second on a 2-core host
MAX_CYCLOTOMIC_ORDER = 1024

# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, lowest degree first, no trailing
# zeros; the empty tuple is the zero polynomial)

IntPoly = Tuple[int, ...]


def _trim(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a: Sequence, b: Sequence) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def _order(a: IntPoly) -> int:
    """The power of t dividing a nonzero a."""
    j = 0
    while not a[j]:
        j += 1
    return j


def _pneg(a: Sequence) -> tuple:
    return tuple(-c for c in a)


def _pmul(a: Sequence, b: Sequence) -> tuple:
    if not a or not b:
        return ()
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return _trim(out)


def _pdivmod_int(a: IntPoly, b: IntPoly) -> Tuple[IntPoly, IntPoly]:
    """Division with remainder in Z[t], where b is monic or divides a."""
    rem = list(a)
    lead, nb = b[-1], len(b)
    quot = [0] * max(0, len(a) - nb + 1)
    for d in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[d + nb - 1], lead)
        assert not r
        if c:
            quot[d] = c
            for i in range(nb - 1):
                rem[d + i] -= c * b[i]
    return _trim(quot), _trim(rem[: nb - 1])


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """A nonzero integer multiple of the remainder of a by b, len(a) >= len(b)."""
    rem = list(a)
    lead, nb = b[-1], len(b)
    while len(rem) >= nb:
        c = rem.pop()
        if c:
            # lead * rem - c * t^d * b, both factors divided by gcd(c, lead)
            g = gcd(c, lead)
            u, v = lead // g, c // g
            if u != 1:
                rem = [u * x for x in rem]
            d = len(rem) - nb + 1
            for i in range(nb - 1):
                rem[d + i] -= v * b[i]
    return _trim(rem)


def _primitive(a: IntPoly) -> IntPoly:
    """a divided by its content, with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple(x // c for x in a)


def _pgcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The primitive gcd with positive leading coefficient of nonzero a and b,
    by the primitive remainder sequence (Knuth, TAOCP vol. 2, 4.6.1)."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        a, b = b, _primitive(r) if r else ()
    return a if not b else (1,)


def _cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, integer coefficients."""
    # Phi_n(t) = Phi_m(t^(n/m)) for m the product of the primes dividing n,
    # and Phi_m is the product of (t^d - 1)^mu(m/d) over d | m: the
    # binomials with mu = 1 divided by those with mu = -1, exactly, at once
    primes = _prime_factors(n)
    m = prod(primes)
    num: List[int] = [1]
    den: List[int] = [1]
    for r in range(len(primes) + 1):
        for cut in combinations(primes, r):
            poly = den if r % 2 else num
            # poly times t^d - 1, for d = m / prod(cut)
            d, old = m // prod(cut), list(poly)
            poly[:] = [-c for c in old] + [0] * d
            for i, c in enumerate(old):
                poly[i + d] += c
    phi, rem = _pdivmod_int(tuple(num), tuple(den))
    assert not rem
    out = [0] * ((len(phi) - 1) * (n // m) + 1)
    out[:: n // m] = phi
    return tuple(out)


# ---------------------------------------------------------------------------
# field specification


@dataclass(frozen=True)
class FieldSpec:
    """Variant tag plus the data needed to build the field.

    kind is one of RATIONAL, CYCLOTOMIC, FUNCTION_FIELD, PRIME_FIELD,
    EXT_FIELD.  n is the cyclotomic order, p the characteristic, f the monic
    defining polynomial (int coefficients, lowest degree first, trailing 1),
    and q the canonical encoding of the distinguished unit where the kind
    requires one.
    """

    kind: str
    n: Optional[int] = None
    p: Optional[int] = None
    f: Optional[Tuple[int, ...]] = None
    q: Optional[str] = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.n is not None:
            out["n"] = self.n
        if self.p is not None:
            out["p"] = self.p
        if self.f is not None:
            out["f"] = list(self.f)
        if self.q is not None:
            out["q"] = self.q
        return out

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        f = obj.get("f")
        return FieldSpec(
            kind=obj["kind"],
            n=obj.get("n"),
            p=obj.get("p"),
            f=tuple(f) if f is not None else None,
            q=str(obj["q"]) if obj.get("q") is not None else None,
        )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


# ---------------------------------------------------------------------------
# elements


class Fel:
    """A field element: a context plus a canonical value.

    Arithmetic delegates to the context.  Plain ints coerce automatically so
    code can write ``x + 1`` or ``3 * x``.  Equality does not: in
    characteristic p the int 3 would have to equal both 3 and 3 + p, and no
    hash could agree with that.
    """

    __slots__ = ("field", "val")

    def __init__(self, field: "FieldCtx", val):
        self.field = field
        self.val = val

    def _coerce(self, other) -> "Fel":
        if isinstance(other, Fel):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        # the hot operators skip _coerce for an element of the same context
        if other.__class__ is not Fel or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.field.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Fel or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.field.add(self, self.field.neg(other))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.add(other, self.field.neg(self))

    def __mul__(self, other):
        if other.__class__ is not Fel or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.field.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.mul(self, self.field.inv(other))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.mul(other, self.field.inv(self))

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if not k:
            return self.field.one
        mul = self.field.mul
        acc = base = self if k > 0 else self.field.inv(self)
        # left to right below the top bit: a square per bit, a product per set bit
        for bit in bin(abs(k))[3:]:
            acc = mul(acc, acc)
            if bit == "1":
                acc = mul(acc, base)
        return acc

    def inverse(self) -> "Fel":
        return self.field.inv(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fel):
            return NotImplemented
        # one shared context is the common case; the spec compare is slow
        return (self.field is other.field or self.field == other.field) and self.val == other.val

    def __bool__(self) -> bool:
        return self.val != self.field.zero.val

    def __hash__(self) -> int:
        # by value, as __eq__ compares: equal-spec contexts built apart agree
        return hash((self.field, self.val))

    def __str__(self) -> str:
        return self.field.show(self)

    def __repr__(self) -> str:
        return f"Fel({self.field.spec.kind}:{self.field.show(self)})"


# ---------------------------------------------------------------------------
# contexts


class FieldCtx:
    """Common interface of all five field kinds."""

    spec: FieldSpec
    characteristic: int
    is_finite: bool

    # subclasses set these in __init__
    zero: Fel
    one: Fel
    minus_one: Fel
    q: Fel

    def el(self, val) -> Fel:
        return Fel(self, val)

    # arithmetic on canonical values -- subclasses override _add etc.
    def add(self, a: Fel, b: Fel) -> Fel:
        return self.el(self._add(a.val, b.val))

    def neg(self, a: Fel) -> Fel:
        return self.el(self._neg(a.val))

    def mul(self, a: Fel, b: Fel) -> Fel:
        return self.el(self._mul(a.val, b.val))

    def inv(self, a: Fel) -> Fel:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.el(self._inv(a.val))

    def from_int(self, n: int) -> Fel:
        raise NotImplementedError

    def parse(self, text: str) -> Fel:
        if not isinstance(text, str):
            raise ValueError(f"a field element must be a string, got {text!r}")
        try:
            return self._parse(text)
        except ZeroDivisionError:
            # bad input, not arithmetic: every caller reports a ValueError
            raise ValueError(f"zero denominator in {text!r}") from None

    def show(self, a: Fel) -> str:
        raise NotImplementedError

    def q_order(self) -> Optional[int]:
        raise NotImplementedError

    def random_element(self, rng) -> Fel:
        raise NotImplementedError

    def all_elements(self) -> Iterator[Fel]:
        raise ValueError(f"{self.spec.kind} is not finite")

    @property
    def order(self) -> Optional[int]:
        """Number of elements, or None when infinite."""
        return None

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FieldCtx) and self.spec == other.spec)

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"FieldCtx({self.spec})"

    # shared encoding helpers
    @staticmethod
    def _show_fraction(n: int, d: int) -> str:
        # n/d in lowest terms; d > 0
        g = gcd(n, d)
        if g != 1:
            n, d = n // g, d // g
        return str(n) if d == 1 else f"{n}/{d}"

    @staticmethod
    def _parse_fraction(text: str) -> Tuple[int, int]:
        """A rational number's text as a reduced (n, d) pair with d > 0."""
        # Fraction would expand 1e10000000 to every digit before any check
        if "e" in text or "E" in text:
            raise ValueError(f"exponent notation is not accepted: {text!r}")
        text = text.strip()
        # ASCII n or n/d, d nonzero: int and one gcd; every other text,
        # accepted or refused, goes through Fraction
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            n, d = int(num), int(den) if slash else 1
            if d:
                g = gcd(n, d)
                return n // g, d // g
        x = Fraction(text)
        return x.numerator, x.denominator

    @staticmethod
    def _parse_bracket_list(text: str) -> list:
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"expected a bracket list, got {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [part.strip() for part in inner.split(",")]


class RationalField(FieldCtx):
    """Q as reduced int pairs: a value is ``(n, d)`` with d > 0 and
    gcd(n, d) = 1.  Zero is ``(0, 1)``."""

    characteristic = 0
    is_finite = False

    def __init__(self, q_text: str):
        self.zero = self.el((0, 1))
        self.one = self.el((1, 1))
        self.minus_one = self.neg(self.one)
        self.q = self.parse(q_text)
        if not self.q:
            raise ValueError("q must be nonzero")
        self.spec = FieldSpec(kind="RATIONAL", q=self.show(self.q))

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if d1 == 1 == d2:
            return (n1 + n2, 1)
        if not n1:
            return b
        if not n2:
            return a
        n, d = n1 * d2 + n2 * d1, d1 * d2
        g = gcd(n, d)
        return (n, d) if g == 1 else (n // g, d // g)

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        # both pairs are reduced, so cancelling across leaves a reduced
        # product (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1)
        (n1, d1), (n2, d2) = a, b
        g1, g2 = gcd(n1, d2), gcd(n2, d1)
        return ((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))

    def _inv(self, a):
        n, d = a
        return (-d, -n) if n < 0 else (d, n)

    def from_int(self, n: int) -> Fel:
        return self.el((n, 1))

    def _parse(self, text: str) -> Fel:
        return self.el(self._parse_fraction(text))

    def show(self, a: Fel) -> str:
        return self._show_fraction(*a.val)

    def q_order(self) -> Optional[int]:
        if self.q.val == (1, 1):
            return 1
        if self.q.val == (-1, 1):
            return 2
        return None  # no other rational lies on the unit circle

    def random_element(self, rng) -> Fel:
        n, d = rng.randint(-9, 9), rng.randint(1, 9)
        g = gcd(n, d)
        return self.el((n // g, d // g))


def _over_common_den(coeffs: Sequence[Tuple[int, int]]) -> Tuple[IntPoly, int]:
    """Rational coefficients, as (n, d) pairs, as int coefficients over
    their least common denominator."""
    den = lcm(*(d for _, d in coeffs)) if coeffs else 1
    return tuple(n * (den // d) for n, d in coeffs), den


class CyclotomicField(FieldCtx):
    """Q(zeta_n) as rational-coefficient residues mod the n-th cyclotomic
    polynomial Phi_n; q is the residue class of the generator.

    A value is ``(coeffs, den)``: the residue's int coefficients (lowest
    degree first, fewer than deg Phi_n, no trailing zeros) over one positive
    int denominator, with gcd(content, den) = 1.  Zero is ``((), 1)``.
    Phi_n is monic, so reducing an integer product keeps it integral.
    """

    characteristic = 0
    is_finite = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cyclotomic order must be >= 1")
        if n > MAX_CYCLOTOMIC_ORDER:
            raise ValueError(f"cyclotomic order {n} is over the limit of {MAX_CYCLOTOMIC_ORDER}")
        self.n = n
        self.modulus: IntPoly = _cyclotomic(n)
        self.degree = len(self.modulus) - 1
        self.spec = FieldSpec(kind="CYCLOTOMIC", n=n)
        self.zero = self.el(((), 1))
        self.one = self.el(((1,), 1))
        self.minus_one = self.neg(self.one)
        self.q = self.el((self._reduce((0, 1)), 1))

    def _reduce(self, poly: IntPoly) -> IntPoly:
        return poly if len(poly) <= self.degree else _pdivmod_int(poly, self.modulus)[1]

    @staticmethod
    def _canon(coeffs: IntPoly, den: int):
        if not coeffs:
            return ((), 1)
        if den == 1:
            return (coeffs, 1)
        g = gcd(den, *coeffs)
        if g == 1:
            return (coeffs, den)
        return (tuple(c // g for c in coeffs), den // g)

    def _from_rationals(self, coeffs: Sequence[Tuple[int, int]]):
        ints, den = _over_common_den(coeffs)
        return self._canon(self._reduce(_trim(ints)), den)

    def _add(self, a, b):
        (c1, d1), (c2, d2) = a, b
        if not c1:
            return b
        if not c2:
            return a
        if d1 == d2:
            return self._canon(_padd(c1, c2), d1)
        return self._canon(_padd([c * d2 for c in c1], [c * d1 for c in c2]), d1 * d2)

    def _neg(self, a):
        return (_pneg(a[0]), a[1])

    def _mul(self, a, b):
        (c1, d1), (c2, d2) = a, b
        if not c1 or not c2:
            return ((), 1)
        return self._canon(self._reduce(_pmul(c1, c2)), d1 * d2)

    def _inv(self, a):
        # c times the product P of its other Galois conjugates sigma_k(c) =
        # c(t^k), k a unit mod n, is the norm N of c, an integer (Cohen,
        # GTM 138, 4.3); so 1 / (c / den) = den P / N.  P grows along a
        # chain of subgroups H of the units: cur is the product of sigma_h(c)
        # over H and P the same without h = 1.  A unit g outside H, of order
        # m modulo H, extends H to the cosets g^i H, i < m, and both products
        # by S = sigma_g(R_{m-1}), where R_j is the product of sigma_{g^i}(cur)
        # over i < j; so each step costs O(log m) products, not m.
        coeffs, den = a
        n = self.n
        cur, prod = coeffs, (1,)
        group = {1 % n}
        for g in range(2, n):
            if gcd(g, n) != 1 or g in group:
                continue
            m, gm = 1, g
            while gm not in group:
                m, gm = m + 1, gm * g % n
            s = self._conj(self._conj_run(cur, g, m - 1), g)
            cur, prod = self._reduce(_pmul(cur, s)), self._reduce(_pmul(prod, s))
            group = {pow(g, i, n) * h % n for i in range(m) for h in group}
        (norm,) = cur
        if norm < 0:
            norm, den = -norm, -den
        return self._canon(tuple(den * c for c in prod), norm)

    def _conj(self, coeffs: IntPoly, k: int) -> IntPoly:
        """sigma_k(c) = c(t^k) for a unit k mod n."""
        n = self.n
        out = [0] * n
        for i, c in enumerate(coeffs):
            out[i * k % n] = c
        return self._reduce(_trim(out))

    def _conj_run(self, coeffs: IntPoly, g: int, j: int) -> IntPoly:
        """R_j = sigma_{g^0}(c) ... sigma_{g^(j-1)}(c), for j >= 1, by doubling:
        R_{a+b} = R_a sigma_{g^a}(R_b), read off the bits of j."""
        run, a = coeffs, 1
        for bit in bin(j)[3:]:
            run, a = self._reduce(_pmul(run, self._conj(run, pow(g, a, self.n)))), 2 * a
            if bit == "1":
                run, a = self._reduce(_pmul(coeffs, self._conj(run, g))), a + 1
        return run

    def from_int(self, n: int) -> Fel:
        return self.el(((n,) if n else (), 1))

    def _parse(self, text: str) -> Fel:
        text = text.strip()
        if not text.startswith("["):
            return self.el(self._from_rationals([self._parse_fraction(text)]))
        parts = self._parse_bracket_list(text)
        return self.el(self._from_rationals([self._parse_fraction(s) for s in parts]))

    def show(self, a: Fel) -> str:
        coeffs, den = a.val
        if not coeffs:
            return "[0]"
        return "[" + ",".join(self._show_fraction(c, den) for c in coeffs) + "]"

    def q_order(self) -> Optional[int]:
        return self.n  # primitive n-th root by construction

    def random_element(self, rng) -> Fel:
        coeffs = tuple(rng.randint(-4, 4) for _ in range(self.degree))
        return self.el((_trim(coeffs), 1))


class FunctionField(FieldCtx):
    """Q(t) as reduced fractions of integer polynomials; q = t.

    A value is ``(N, D)``: two tuples of int coefficients (lowest degree
    first, no trailing zeros) with gcd(N, D) = 1 in Q[t], content 1 over the
    coefficients of N and D together, and lc(D) > 0.  Zero is ``((), (1,))``.
    ``show`` divides by lc(D), so the text has a monic denominator.
    """

    characteristic = 0
    is_finite = False

    def __init__(self):
        self.spec = FieldSpec(kind="FUNCTION_FIELD")
        self.zero = self.el(((), (1,)))
        self.one = self.el(((1,), (1,)))
        self.minus_one = self.neg(self.one)
        self.q = self.el(((0, 1), (1,)))

    @staticmethod
    def _unit(num: IntPoly, den: IntPoly):
        # divide num and den by their joint content, signed so lc(den) > 0
        c = gcd(*num, *den)
        if den[-1] < 0:
            c = -c
        if c == 1:
            return (num, den)
        return (tuple(x // c for x in num), tuple(x // c for x in den))

    @staticmethod
    def _cancel(num: IntPoly, den: IntPoly) -> Tuple[IntPoly, IntPoly]:
        # divide out gcd(num, den); the gcd is primitive, so the division
        # is exact in Z[t] (Gauss's lemma).  When one side is c t^m, the gcd
        # is t^j, j the lower of the two orders at t, and dividing by it
        # drops j low zeros
        if len(num) > 1 and len(den) > 1:
            if not any(num[:-1]) or not any(den[:-1]):
                j = min(_order(num), _order(den))
                return num[j:], den[j:]
            g = _pgcd(num, den)
            if len(g) > 1:
                return _pdivmod_int(num, g)[0], _pdivmod_int(den, g)[0]
        return num, den

    @staticmethod
    def _normalize(num: IntPoly, den: IntPoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (1,))
        return FunctionField._unit(*FunctionField._cancel(num, den))

    # a sum with a zero operand, and a sum or product of two polynomials
    # (denominator 1), is canonical as it stands, so no gcd is taken; a sum
    # over one shared denominator adds the numerators

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n1:
            return b
        if not n2:
            return a
        if d1 == d2:
            if d1 == (1,):
                return (_padd(n1, n2), d1)
            return self._normalize(_padd(n1, n2), d1)
        return self._normalize(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    def _neg(self, a):
        return (_pneg(a[0]), a[1])

    def _mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if d1 == d2 == (1,):
            return (_pmul(n1, n2), d1)
        if not n1 or not n2:
            return ((), (1,))
        # gcd(n1, d1) = gcd(n2, d2) = 1 already, so cancelling across leaves
        # a reduced product and the gcds work on the factors' smaller degrees
        # (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1)
        n1, d2 = self._cancel(n1, d2)
        n2, d1 = self._cancel(n2, d1)
        return self._unit(_pmul(n1, n2), _pmul(d1, d2))

    def _inv(self, a):
        num, den = a
        if num[-1] < 0:
            return (_pneg(den), _pneg(num))
        return (den, num)

    def from_int(self, n: int) -> Fel:
        return self.el(((n,) if n else (), (1,)))

    def _parse(self, text: str) -> Fel:
        text = text.strip()
        if "|" in text:
            num_s, den_s = text.split("|", 1)
        else:
            num_s, den_s = text, "[1]"
        def side(s: str) -> Tuple[IntPoly, int]:
            s = s.strip()
            if not s.startswith("["):
                coeffs = [self._parse_fraction(s)]
            else:
                coeffs = [self._parse_fraction(x) for x in self._parse_bracket_list(s)]
            ints, den = _over_common_den(coeffs)
            return _trim(ints), den
        (num, num_den), (den, den_den) = side(num_s), side(den_s)
        # (num / num_den) / (den / den_den)
        return self.el(self._normalize(tuple(c * den_den for c in num), tuple(c * num_den for c in den)))

    def show(self, a: Fel) -> str:
        num, den = a.val
        lead = den[-1]
        def side(poly: IntPoly) -> str:
            if not poly:
                return "[0]"
            return "[" + ",".join(self._show_fraction(c, lead) for c in poly) + "]"
        return side(num) + "|" + side(den)

    def q_order(self) -> Optional[int]:
        return None  # t is transcendental

    def random_element(self, rng) -> Fel:
        num = _trim(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3))))
        den: IntPoly = ()
        while not den:
            den = _trim(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 2))))
        return self.el(self._normalize(num, den))


class _FiniteField(FieldCtx):
    """The two finite kinds: values are the ints 0..order-1, and each value
    has exactly one ``Fel``, so arithmetic results are never allocated."""

    is_finite = True

    def _intern(self, order: int) -> None:
        self._els = [Fel(self, v) for v in range(order)]
        self.el = self._els.__getitem__  # type: ignore[method-assign]

    def all_elements(self) -> Iterator[Fel]:
        return iter(self._els)

    @property
    def order(self) -> int:
        return len(self._els)


def _check_order(order: int) -> None:
    # tables and interned elements are O(order); refuse before building any
    if order > MAX_FIELD_ORDER:
        raise ValueError(f"field order {order} is over the limit of {MAX_FIELD_ORDER}")


class PrimeField(_FiniteField):
    def __init__(self, p: int, q: int):
        _check_order(p)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        q %= p
        if q == 0:
            raise ValueError("q must be nonzero")
        self.characteristic = p
        self.spec = FieldSpec(kind="PRIME_FIELD", p=p, q=str(q))
        self._intern(p)
        self.zero = self.el(0)
        self.one = self.el(1 % p)
        self.minus_one = self.neg(self.one)
        self.q = self.el(q)

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int) -> Fel:
        return self.el(n % self.p)

    def _parse(self, text: str) -> Fel:
        return self.el(int(text.strip()) % self.p)

    def show(self, a: Fel) -> str:
        return str(a.val)

    def q_order(self) -> Optional[int]:
        # the order divides p - 1: strip each prime factor while q^(n/r) = 1
        p, q = self.p, self.q.val
        n = p - 1
        for r in _prime_factors(n):
            while n % r == 0 and pow(q, n // r, p) == 1:
                n //= r
        return n

    def random_element(self, rng) -> Fel:
        return self.el(rng.randrange(self.p))


class ExtField(_FiniteField):
    """GF(p^k) as residues of GF(p)[t] mod an irreducible monic f.

    The residue c_0 + c_1 t + ... + c_{k-1} t^{k-1} is stored as the int
    c_0 + c_1 p + ... + c_{k-1} p^{k-1}, its index in ``all_elements``.
    Arithmetic runs on log/antilog and Zech tables over a primitive element
    g (Huber 1990): with n = p^k - 1, ``_exp[i] = g^i`` for 0 <= i < 2n,
    ``_log[g^i] = i`` and ``_zech[i] = log(1 + g^i)``, or None where
    1 + g^i = 0.  Polynomial division runs only while the tables are built
    and when ``parse`` reads an unreduced residue.
    """

    def __init__(self, p: int, f: Sequence[int], q_text: str):
        if p <= MAX_FIELD_ORDER and not _is_prime(p):
            # a larger p fails the order cap below without a primality test
            raise ValueError(f"{p} is not prime")
        f = _trim(tuple(c % p for c in f))
        if len(f) < 3:
            raise ValueError("defining polynomial must have degree >= 2")
        if len(f) - 1 > 8:
            raise ValueError("defining polynomial degree > 8 not supported")
        if f[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        _check_order(p ** (len(f) - 1))
        self.p = p
        self.modulus: IntPoly = f
        self.degree = len(f) - 1
        if not self._irreducible(f, p):
            raise ValueError(f"defining polynomial {list(f)} is reducible mod {p}")
        self.characteristic = p
        self._build_tables()
        self._intern(p**self.degree)
        self.zero = self.el(0)
        self.one = self.el(1)
        self.minus_one = self.neg(self.one)
        qval = self.parse(q_text).val
        if qval == 0:
            raise ValueError("q must be nonzero")
        self.q = self.el(qval)
        self.spec = FieldSpec(kind="EXT_FIELD", p=p, f=f, q=self.show(self.q))

    @staticmethod
    def _irreducible(f: IntPoly, p: int) -> bool:
        # exhaustive trial division; any factorization has a factor of
        # degree at most deg(f)/2
        deg = len(f) - 1
        for d in range(1, deg // 2 + 1):
            for idx in range(p ** d):
                coeffs = []
                k = idx
                for _ in range(d):
                    coeffs.append(k % p)
                    k //= p
                trial = tuple(coeffs) + (1,)  # monic of degree d
                if not _pdivmod_modp(f, trial, p)[1]:
                    return False
        return True

    def _poly(self, v: int) -> IntPoly:
        coeffs = []
        while v:
            coeffs.append(v % self.p)
            v //= self.p
        return tuple(coeffs)

    def _value(self, poly: IntPoly) -> int:
        v = 0
        for c in reversed(poly):
            v = v * self.p + c
        return v

    def _build_tables(self) -> None:
        p, k = self.p, self.degree
        n = p**k - 1
        primes = _prime_factors(n)

        def mul(a: IntPoly, b: IntPoly) -> IntPoly:
            return _pdivmod_modp(_pmul(a, b), self.modulus, p)[1]

        def power(a: IntPoly, e: int) -> IntPoly:
            acc: IntPoly = (1,)
            while e:
                if e & 1:
                    acc = mul(acc, a)
                a = mul(a, a)
                e >>= 1
            return acc

        # t itself need not be primitive (t^2 + 1 over F3: t has order 4); the
        # constants v < p have order dividing p - 1 < n, so the search skips them
        g = next(
            self._poly(v) for v in range(p, n + 1) if all(power(self._poly(v), n // r) != (1,) for r in primes)
        )
        # multiplying by g is F_p-linear on coefficient vectors; row i of the
        # matrix holds coefficient i of g * t^j for each j
        cols = [mul(g, (0,) * j + (1,)) for j in range(k)]
        rows = [[col[i] if i < len(col) else 0 for col in cols] for i in range(k)]
        places = [p**i for i in range(k)]
        exp = [1] * n
        acc = [1] + [0] * (k - 1)
        for i in range(1, n):
            acc = [sum(map(mul_int, row, acc)) % p for row in rows]
            exp[i] = sum(map(mul_int, places, acc))
        log: List[Optional[int]] = [None] * (n + 1)
        for i, v in enumerate(exp):
            log[v] = i
        # 1 + v adds one to the constant coefficient, the lowest base-p digit
        self._zech = [log[v - v % p + (v + 1) % p] for v in exp]
        self._exp = exp = exp + exp
        self._log = log
        self._n = n
        half = n // 2 if p > 2 else 0  # -1 = g^(n/2), or 1 in characteristic 2
        self._negs = [0] + [exp[log[v] + half] for v in range(1, n + 1)]  # type: ignore[operator]

    def _add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod n
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def _neg(self, a):
        return self._negs[a]

    def _mul(self, a, b):
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def _inv(self, a):
        return self._exp[self._n - self._log[a]]

    def from_int(self, n: int) -> Fel:
        return self.el(n % self.p)

    def _parse(self, text: str) -> Fel:
        text = text.strip()
        if not text.startswith("["):
            return self.el(int(text) % self.p)
        coeffs = _trim(tuple(int(s) % self.p for s in self._parse_bracket_list(text)))
        if len(coeffs) > self.degree:
            coeffs = _pdivmod_modp(coeffs, self.modulus, self.p)[1]
        return self.el(self._value(coeffs))

    def show(self, a: Fel) -> str:
        if not a.val:
            return "[0]"
        return "[" + ",".join(str(c) for c in self._poly(a.val)) + "]"

    def q_order(self) -> Optional[int]:
        return self._n // gcd(self._log[self.q.val], self._n)  # type: ignore[arg-type]

    def random_element(self, rng) -> Fel:
        coeffs = tuple(rng.randrange(self.p) for _ in range(self.degree))
        return self.el(self._value(coeffs))


def _pdivmod_modp(a: IntPoly, b: IntPoly, p: int) -> Tuple[IntPoly, IntPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [c % p for c in a]
    quot = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1] % p, p - 2, p)
    while len(rem) >= len(b):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        c = (rem[-1] * inv_lead) % p
        d = len(rem) - len(b)
        quot[d] = c
        for i, y in enumerate(b):
            rem[d + i] = (rem[d + i] - c * y) % p
        rem.pop()
    return _trim(tuple(quot)), _trim(tuple(c % p for c in rem))


# ---------------------------------------------------------------------------
# entry point


def make_field(spec: FieldSpec) -> FieldCtx:
    """Build a field context from a spec; validates all invariants."""
    kind = spec.kind
    if kind == "RATIONAL":
        return RationalField(spec.q if spec.q is not None else "2")
    if kind == "CYCLOTOMIC":
        if spec.n is None:
            raise ValueError("CYCLOTOMIC requires n")
        return _fixed_q(CyclotomicField(spec.n), spec.q)
    if kind == "FUNCTION_FIELD":
        return _fixed_q(FunctionField(), spec.q)
    if kind == "PRIME_FIELD":
        if spec.p is None or spec.q is None:
            raise ValueError("PRIME_FIELD requires p and q")
        return PrimeField(spec.p, int(spec.q))
    if kind == "EXT_FIELD":
        if spec.p is None or spec.f is None or spec.q is None:
            raise ValueError("EXT_FIELD requires p, f and q")
        return ExtField(spec.p, spec.f, spec.q)
    raise ValueError(f"unknown field kind {kind!r}")


def _fixed_q(ctx: FieldCtx, text: Optional[str]) -> FieldCtx:
    """ctx, whose kind fixes q (zeta_n, t), once a q the spec gives reads as that q."""
    if text is not None and ctx.parse(text) != ctx.q:
        raise ValueError(f"{ctx.spec.kind} has q = {ctx.show(ctx.q)}, not {text}")
    return ctx


def q_order(ctx: FieldCtx) -> Optional[int]:
    """Least n >= 1 with q^n = 1, or None when q has infinite order."""
    return ctx.q_order()


def characteristic(ctx: FieldCtx) -> int:
    return ctx.characteristic
