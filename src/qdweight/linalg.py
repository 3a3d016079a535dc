"""Dense exact linear algebra over a field context.

Everything downstream (relation checking, endomorphism solving, idempotent
splitting, intertwiner search, closure spinning, extension solving) reduces
to small dense systems, so this stays deliberately simple: one incremental
reduced-echelon kernel, `Echelon`, with exact arithmetic and the leading
nonzero entry of each new row as its pivot.  `Mat.rref`, and through it
rank, nullspace, column space, image_and_kernel and solve, feed their rows
into it.  Products and scales skip zero entries of both factors, so a
shift, diagonal or identity factor costs one field product per nonzero
pair rather than d^3.
"""

from __future__ import annotations

from bisect import bisect
from typing import List, Optional, Sequence, Tuple

from .fields import Fel, FieldCtx


class Echelon:
    """Span of equal-length vectors, kept in reduced row echelon form.

    rows[i] has its leading 1 in column pivots[i]; pivots ascend, and every
    pivot column is zero in the other rows.  Reduced echelon form is unique,
    so the rows depend only on the span of what was inserted.
    """

    __slots__ = ("pivots", "rows")

    def __init__(self):
        self.pivots: List[int] = []
        self.rows: List[List[Fel]] = []

    def insert(self, vec: Sequence[Fel]) -> Optional[List[Fel]]:
        """Add a vector; return its normalized new row, or None if already spanned."""
        # a row is zero left of its pivot, so each update starts there
        v = list(vec)
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v[piv:] = [a - c * b if b else a for a, b in zip(v[piv:], row[piv:])]
        lead = next((i for i, c in enumerate(v) if c), None)
        if lead is None:
            return None
        inv = v[lead].inverse()
        v[lead:] = [a * inv for a in v[lead:]]
        for i, row in enumerate(self.rows):
            c = row[lead]
            if c:
                self.rows[i] = row[:lead] + [a - c * b if b else a for a, b in zip(row[lead:], v[lead:])]
        at = bisect(self.pivots, lead)
        self.pivots.insert(at, lead)
        self.rows.insert(at, v)
        return v

    @property
    def rank(self) -> int:
        return len(self.rows)


class Mat:
    """An immutable-by-convention dense matrix of field elements."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldCtx, data: Sequence[Sequence[Fel]], cols: Optional[int] = None):
        self.ctx = ctx
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            for row in self.data:
                if len(row) != self.cols:
                    raise ValueError("ragged matrix")
        else:
            self.cols = cols if cols is not None else 0

    # construction helpers

    @staticmethod
    def zeros(ctx: FieldCtx, rows: int, cols: int) -> "Mat":
        return Mat(ctx, [[ctx.zero] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> "Mat":
        out = Mat.zeros(ctx, n, n)
        for i in range(n):
            out.data[i][i] = ctx.one
        return out

    @staticmethod
    def from_ints(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> "Mat":
        return Mat(ctx, [[ctx.from_int(v) for v in row] for row in rows])

    @staticmethod
    def column(ctx: FieldCtx, entries: Sequence[Fel]) -> "Mat":
        return Mat(ctx, [[e] for e in entries], cols=1)

    # basic algebra

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Mat(
            self.ctx,
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(-self.ctx.one)

    def scale(self, c: Fel) -> "Mat":
        return Mat(self.ctx, [[v * c if v else v for v in row] for row in self.data], cols=self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        # row i of the product is the sum of a_ik times row k of other, over
        # the nonzero a_ik and the nonzero entries of that row only
        zero = self.ctx.zero
        support = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for a in self.data:
            row = [zero] * other.cols
            for c, terms in zip(a, support):
                if c:
                    for j, b in terms:
                        acc = row[j]
                        row[j] = acc + c * b if acc else c * b
            out.append(row)
        return Mat(self.ctx, out, cols=other.cols)

    def pow(self, n: int) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        acc = Mat.identity(self.ctx, self.rows)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def transpose(self) -> "Mat":
        return Mat(
            self.ctx,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Mat(
            self.ctx,
            [self.data[i] + other.data[i] for i in range(self.rows)],
            cols=self.cols + other.cols,
        )

    def col(self, j: int) -> List[Fel]:
        return [self.data[i][j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(not v for row in self.data for v in row)

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"Mat[{body}]"

    # elimination

    def rref(self) -> Tuple["Mat", List[int]]:
        """Reduced row echelon form and the pivot column indices."""
        ech = Echelon()
        for row in self.data:
            ech.insert(row)
        zeros = [[self.ctx.zero] * self.cols for _ in range(self.rows - ech.rank)]
        return Mat(self.ctx, ech.rows + zeros, cols=self.cols), list(ech.pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def _kernel(self, red: "Mat", pivots: List[int]) -> List[List[Fel]]:
        """Kernel basis vectors read off the reduced form, one per free column."""
        basis = []
        for f in sorted(set(range(self.cols)) - set(pivots)):
            vec = [self.ctx.zero] * self.cols
            vec[f] = self.ctx.one
            for r, p in enumerate(pivots):
                vec[p] = -red.data[r][f]
            basis.append(vec)
        return basis

    def _columns(self, js: List[int]) -> "Mat":
        return Mat(self.ctx, [[row[j] for j in js] for row in self.data], cols=len(js))

    def nullspace(self) -> List["Mat"]:
        """Basis of the right kernel, as column vectors."""
        return [Mat.column(self.ctx, v) for v in self._kernel(*self.rref())]

    def column_space(self) -> "Mat":
        """A matrix whose columns are a basis of the column space."""
        return self._columns(self.rref()[1])

    def image_and_kernel(self) -> Tuple["Mat", "Mat"]:
        """column_space() and a matrix whose columns are nullspace(), from one elimination."""
        red, pivots = self.rref()
        kernel = Mat(self.ctx, self._kernel(red, pivots), cols=self.cols).transpose()
        return self._columns(pivots), kernel

    def solve(self, rhs: "Mat") -> Optional["Mat"]:
        """One exact solution X of self * X = rhs, or None if inconsistent.

        Free variables are set to zero.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row mismatch")
        aug = self.hstack(rhs)
        red, pivots = aug.rref()
        n = self.cols
        for r, p in enumerate(pivots):
            if p >= n:
                return None  # a pivot escaped into the rhs block
        out = Mat.zeros(self.ctx, n, rhs.cols)
        for r, p in enumerate(pivots):
            for j in range(rhs.cols):
                out.data[p][j] = red.data[r][n + j]
        return out

    def inverse(self) -> Optional["Mat"]:
        if self.rows != self.cols:
            return None
        sol = self.solve(Mat.identity(self.ctx, self.rows))
        if sol is None:
            return None
        if (self * sol) != Mat.identity(self.ctx, self.rows):
            return None
        return sol

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    # serialization

    def to_json(self) -> list:
        return [[str(v) for v in row] for row in self.data]

    @staticmethod
    def from_json(ctx: FieldCtx, data: list, rows: int, cols: int) -> "Mat":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("a matrix must be a list of rows, each a list of entries")
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"matrix shape mismatch: expected {rows}x{cols}")
        return Mat(ctx, [[ctx.parse(v) for v in row] for row in data], cols=cols)


def fitting_power(m: Mat) -> Mat:
    """m squared until the exponent reaches its dimension: high enough that
    kernel and image split, and they are the same for every higher power."""
    e = 1
    while e < m.rows:
        m = m * m
        e *= 2
    return m
