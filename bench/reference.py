"""A fixed stdlib-only reference computation that gauges the host's speed.

The benchmark shares a few virtual CPUs with other tenants, and their
speed drifts by up to 2x within a minute and by about 30% from one second
to the next.  A raw wall-clock time therefore mostly measures the host.
``reference`` is fixed work of the same kind the program does (Fraction
elimination, elimination mod a small prime, arithmetic on small slotted
objects through a context) that never touches ``qdweight``.  The benchmark
runs it between ops and divides each op's time by the mean of the two
reference times around it, so that a change to ``qdweight`` moves the
ratio and a change in host speed mostly does not.

``NOMINAL_S`` converts the ratio back to seconds: it is the median time of
``reference`` on a 2-vCPU x86-64 virtual machine (2.1 GHz, Python 3.11).
Scaled times therefore read as seconds on a host on which ``reference``
takes ``NOMINAL_S``.  The constant is never changed, so scaled times of two
commits compare directly.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

NOMINAL_S = 0.040


def _fraction_elimination(n: int = 14) -> None:
    rng = random.Random(5)
    M = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            continue
        M[c], M[p] = M[p], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]


def _modular_elimination(n: int = 60, p: int = 7) -> None:
    rng = random.Random(5)
    M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            continue
        M[c], M[piv] = M[piv], M[c]
        inv = pow(M[c][c], p - 2, p)
        M[c] = [x * inv % p for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [(a - f * b) % p for a, b in zip(M[r], M[c])]


class _El:
    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    def __add__(self, other):
        return self.ctx.add(self, other)

    def __mul__(self, other):
        return self.ctx.mul(self, other)


class _F9:
    """F3[i]/(i^2 + 1), elements as coefficient pairs."""

    def add(self, x, y):
        a, b = x.val
        c, d = y.val
        return _El(self, ((a + c) % 3, (b + d) % 3))

    def mul(self, x, y):
        a, b = x.val
        c, d = y.val
        return _El(self, ((a * c - b * d) % 3, (a * d + b * c) % 3))


def _object_product(n: int = 18) -> None:
    rng = random.Random(5)
    ctx = _F9()
    A = [[_El(ctx, (rng.randrange(3), rng.randrange(3))) for _ in range(n)] for _ in range(n)]
    B = [[_El(ctx, (rng.randrange(3), rng.randrange(3))) for _ in range(n)] for _ in range(n)]
    zero = _El(ctx, (0, 0))
    for i in range(n):
        for j in range(n):
            s = zero
            for k in range(n):
                s = s + A[i][k] * B[k][j]


def reference() -> float:
    """Run the reference work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _fraction_elimination()
    _modular_elimination()
    _object_product()
    return time.perf_counter() - t0


class Gauge:
    """Reference times taken between ops, and the scale each op gets.

    ``mark()`` runs the reference and returns its index; an op timed
    between marks ``i`` and ``i + 1`` is scaled by
    ``NOMINAL_S / mean(times[i], times[i + 1])``.
    """

    def __init__(self) -> None:
        self.times: list = []

    def mark(self) -> int:
        self.times.append(reference())
        return len(self.times) - 1

    def scale(self, before: int, after: int) -> float:
        return NOMINAL_S / ((self.times[before] + self.times[after]) / 2.0)

    def last(self) -> int:
        return len(self.times) - 1
