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

Finite fields have at most MAX_FIELD_ORDER elements, each interned once.

Every element has a unique canonical form and a canonical text encoding that
round-trips through ``parse``/``show``.  Elements are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul as mul_int
from typing import Iterator, List, Optional, Sequence, Tuple

# largest number of elements of a finite field: its tables and interned
# elements are built up front
MAX_FIELD_ORDER = 2**16

# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, lowest degree first, no trailing
# zeros; the empty tuple is the zero polynomial)

IntPoly = Tuple[int, ...]
FracPoly = Tuple[Fraction, ...]


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


def _pdivmod_frac(a: FracPoly, b: FracPoly) -> Tuple[FracPoly, FracPoly]:
    """Division with remainder over the rationals."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(b):
            break
        c = rem[-1] / lead
        d = len(rem) - len(b)
        quot[d] = c
        for i, y in enumerate(b):
            rem[d + i] -= c * y
        rem.pop()
    return _trim(quot), _trim(rem)


def _pgcd_frac(a: FracPoly, b: FracPoly) -> FracPoly:
    while b:
        a, b = b, _pdivmod_frac(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)  # monic normal form
    return a


def _cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, integer coefficients."""
    # (t^n - 1) divided by the product of all lower-order cyclotomics.
    num = tuple(Fraction(c) for c in [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            phi_d = tuple(Fraction(c) for c in _cyclotomic(d))
            num, rem = _pdivmod_frac(num, phi_d)
            assert not rem
    poly = tuple(int(c) for c in num)
    return poly


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
        base = self if k >= 0 else self.field.inv(self)
        k = abs(k)
        acc = self.field.one
        while k:
            if k & 1:
                acc = self.field.mul(acc, base)
            base = self.field.mul(base, base)
            k >>= 1
        return acc

    def inverse(self) -> "Fel":
        return self.field.inv(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fel):
            return NotImplemented
        return self.field == other.field and self.val == other.val

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
        return self._parse(text)

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
        return isinstance(other, FieldCtx) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"FieldCtx({self.spec})"

    # shared encoding helpers
    @staticmethod
    def _show_fraction(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    @staticmethod
    def _parse_fraction(text: str) -> Fraction:
        return Fraction(text.strip())

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
    characteristic = 0
    is_finite = False

    def __init__(self, q: Fraction):
        if q == 0:
            raise ValueError("q must be nonzero")
        self.spec = FieldSpec(kind="RATIONAL", q=self._show_fraction(q))
        self.zero = self.el(Fraction(0))
        self.one = self.el(Fraction(1))
        self.q = self.el(q)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def from_int(self, n: int) -> Fel:
        return self.el(Fraction(n))

    def _parse(self, text: str) -> Fel:
        return self.el(self._parse_fraction(text))

    def show(self, a: Fel) -> str:
        return self._show_fraction(a.val)

    def q_order(self) -> Optional[int]:
        if self.q.val == 1:
            return 1
        if self.q.val == -1:
            return 2
        return None  # no other rational lies on the unit circle

    def random_element(self, rng) -> Fel:
        return self.el(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


class CyclotomicField(FieldCtx):
    """Q(zeta_n) as rational-coefficient residues mod the n-th cyclotomic
    polynomial; q is the residue class of the generator."""

    characteristic = 0
    is_finite = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.n = n
        self.modulus: FracPoly = tuple(Fraction(c) for c in _cyclotomic(n))
        self.degree = len(self.modulus) - 1
        self.spec = FieldSpec(kind="CYCLOTOMIC", n=n)
        self.zero = self.el(())
        self.one = self.el((Fraction(1),))
        qval = self._reduce((Fraction(0), Fraction(1)))
        self.q = self.el(qval)

    def _reduce(self, poly: FracPoly) -> FracPoly:
        return _pdivmod_frac(_trim(poly), self.modulus)[1]

    def _add(self, a, b):
        return _padd(a, b)

    def _neg(self, a):
        return _pneg(a)

    def _mul(self, a, b):
        return self._reduce(_pmul(a, b))

    def _inv(self, a):
        # extended Euclid in Q[t] against the modulus
        r0, r1 = self.modulus, a
        s0, s1 = (), (Fraction(1),)
        while r1:
            quot, rem = _pdivmod_frac(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _padd(s0, _pneg(_pmul(quot, s1)))
        assert len(r0) == 1  # gcd is a unit: the modulus is irreducible
        scale = (Fraction(1) / r0[0],)
        return self._reduce(_pmul(s0, scale))

    def from_int(self, n: int) -> Fel:
        return self.el(_trim((Fraction(n),)))

    def _parse(self, text: str) -> Fel:
        text = text.strip()
        if not text.startswith("["):
            return self.el(self._reduce((self._parse_fraction(text),)))
        parts = self._parse_bracket_list(text)
        return self.el(self._reduce(tuple(self._parse_fraction(s) for s in parts)))

    def show(self, a: Fel) -> str:
        if not a.val:
            return "[0]"
        return "[" + ",".join(self._show_fraction(c) for c in a.val) + "]"

    def q_order(self) -> Optional[int]:
        return self.n  # primitive n-th root by construction

    def random_element(self, rng) -> Fel:
        coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(self.degree))
        return self.el(_trim(coeffs))


class FunctionField(FieldCtx):
    """Q(t), elements as reduced num/den pairs with monic denominator; q = t."""

    characteristic = 0
    is_finite = False

    def __init__(self):
        self.spec = FieldSpec(kind="FUNCTION_FIELD")
        self.zero = self.el(((), (Fraction(1),)))
        self.one = self.el(((Fraction(1),), (Fraction(1),)))
        self.q = self.el(((Fraction(0), Fraction(1)), (Fraction(1),)))

    @staticmethod
    def _normalize(num: FracPoly, den: FracPoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (Fraction(1),))
        g = _pgcd_frac(num, den)
        if len(g) > 1:
            num = _pdivmod_frac(num, g)[0]
            den = _pdivmod_frac(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        return (num, den)

    # a sum with a zero operand, and a sum or product of two polynomials
    # (denominator 1), is canonical as it stands, so _normalize and its gcd
    # are skipped

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n1:
            return b
        if not n2:
            return a
        if d1 == d2 == (1,):
            return (_padd(n1, n2), d1)
        return self._normalize(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    def _neg(self, a):
        return (_pneg(a[0]), a[1])

    def _mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if d1 == d2 == (1,):
            return (_pmul(n1, n2), d1)
        return self._normalize(_pmul(n1, n2), _pmul(d1, d2))

    def _inv(self, a):
        return self._normalize(a[1], a[0])

    def from_int(self, n: int) -> Fel:
        return self.el((_trim((Fraction(n),)), (Fraction(1),)))

    def _parse(self, text: str) -> Fel:
        text = text.strip()
        if "|" in text:
            num_s, den_s = text.split("|", 1)
        else:
            num_s, den_s = text, "[1]"
        def side(s: str) -> FracPoly:
            s = s.strip()
            if not s.startswith("["):
                return _trim((self._parse_fraction(s),))
            return _trim(tuple(self._parse_fraction(x) for x in self._parse_bracket_list(s)))
        return self.el(self._normalize(side(num_s), side(den_s)))

    def show(self, a: Fel) -> str:
        num, den = a.val
        def side(poly: FracPoly) -> str:
            if not poly:
                return "[0]"
            return "[" + ",".join(self._show_fraction(c) for c in poly) + "]"
        return side(num) + "|" + side(den)

    def q_order(self) -> Optional[int]:
        return None  # t is transcendental

    def random_element(self, rng) -> Fel:
        num = _trim(tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))))
        den: FracPoly = ()
        while not den:
            den = _trim(tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))))
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
        q = Fraction(spec.q) if spec.q is not None else Fraction(2)
        return RationalField(q)
    if kind == "CYCLOTOMIC":
        if spec.n is None:
            raise ValueError("CYCLOTOMIC requires n")
        return CyclotomicField(spec.n)
    if kind == "FUNCTION_FIELD":
        return FunctionField()
    if kind == "PRIME_FIELD":
        if spec.p is None or spec.q is None:
            raise ValueError("PRIME_FIELD requires p and q")
        return PrimeField(spec.p, int(spec.q))
    if kind == "EXT_FIELD":
        if spec.p is None or spec.f is None or spec.q is None:
            raise ValueError("EXT_FIELD requires p, f and q")
        return ExtField(spec.p, spec.f, spec.q)
    raise ValueError(f"unknown field kind {kind!r}")


def q_order(ctx: FieldCtx) -> Optional[int]:
    """Least n >= 1 with q^n = 1, or None when q has infinite order."""
    return ctx.q_order()


def characteristic(ctx: FieldCtx) -> int:
    return ctx.characteristic
