"""Exact linear algebra over a field context.

Everything downstream (relation checking, endomorphism solving, idempotent
splitting, intertwiner search, closure spinning, extension solving) reduces
to linear systems, and most of their equations touch few unknowns: an
entry of L Z R names only the entries of Z that the nonzero entries of L
and R reach.  So there is one elimination kernel, `Echelon`, an incremental
reduced echelon form that keeps each row as {column: nonzero entry} and
takes each new vector as (column, entry) terms; its work is bounded by the
entries it touches, not by the width of the system.  Every solver writes
its equations with `product_terms` and reads them with `solution`.
`Mat.rref` feeds a matrix's rows in through `terms` and returns the
`Echelon` itself; rank, nullspace, column space, image_and_kernel, solve
and inverse read its rows and pivots as they are, and only rank_factors
makes dense rows, the nonzero rows of its C.  Products and scales skip
zero entries of both factors, so a shift, diagonal or identity factor
costs one field product per nonzero pair rather than d^3.
`Mat.scalar_value` reads c off a block that is c times the identity, so
that a caller can scale by c, or skip an X = 1 link, where it would
otherwise invert or multiply the block.  It reads the diagonal first, so
a dense block costs one or two compares, not a row's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .fields import Fel, FieldCtx


def terms(vec: Sequence[Fel]) -> List[Tuple[int, Fel]]:
    """The (column, entry) terms of a dense vector's nonzero entries."""
    return [(j, c) for j, c in enumerate(vec) if c]


def dense(row: Dict[int, Fel], width: int, zero: Fel) -> List[Fel]:
    """A row {column: entry} as a list of the given width."""
    out = [zero] * width
    for j, c in row.items():
        out[j] = c
    return out


class Echelon:
    """Span of vectors, kept in reduced row echelon form.

    rows maps each pivot to its row, a dict {column: nonzero entry} whose
    smallest column is the pivot, with entry 1; no row holds another row's
    pivot.  Reduced echelon form is unique, so the rows depend only on the
    span of what was inserted, in whatever order.  It is what `Mat.rref`
    returns: a matrix's reduced row echelon form, its zero rows dropped.
    """

    __slots__ = ("rows", "_holders")

    def __init__(self):
        self.rows: Dict[int, Dict[int, Fel]] = {}
        # non-pivot column -> the pivots of the rows that hold it
        self._holders: Dict[int, Set[int]] = {}

    def insert_terms(self, vec: Sequence[Tuple[int, Fel]]) -> Optional[int]:
        """Add the vector that is the sum of c at column j over its (j, c)
        terms, a column possibly named more than once.  Return the pivot of
        its new row, or None if it was already spanned."""
        rows = self.rows
        v = dict(vec)
        if len(v) < len(vec):  # a column named twice: sum its entries
            v = {}
            for j, c in vec:
                a = v.get(j)
                v[j] = c if a is None else a + c
        # a reduced row is zero at every other pivot, so subtracting it
        # brings in no pivot: one pass over the pivots v holds clears them all
        for p in [p for p in v if p in rows]:
            c = v.pop(p)
            if c:
                m = -c
                for j, b in rows[p].items():
                    if j != p:
                        a = v.get(j)
                        v[j] = m * b if a is None else a + m * b
        v = {j: c for j, c in v.items() if c}
        if not v:
            return None
        lead = min(v)
        c = v[lead]
        if c != c.field.one:
            inv = c.inverse()
            v = {j: a * inv for j, a in v.items()}
        holders = self._holders
        touched = holders.pop(lead, ())
        for j in v:
            if j != lead:
                holders.setdefault(j, set()).add(lead)
        # clear the new pivot from the rows that hold it, and only those
        for p in touched:
            row = rows[p]
            m = -row.pop(lead)
            for j, b in v.items():
                if j != lead:
                    a = row.get(j)
                    if a is None:
                        row[j] = m * b
                        holders[j].add(p)
                    else:
                        a = a + m * b
                        if a:
                            row[j] = a
                        else:
                            del row[j]
                            holders[j].discard(p)
        rows[lead] = v
        return lead

    def insert(self, vec: Sequence[Fel]) -> Optional[List[Fel]]:
        """insert_terms for a dense vector: its new row, dense, or None."""
        lead = self.insert_terms(terms(vec))
        return None if lead is None else dense(self.rows[lead], len(vec), vec[lead].field.zero)

    @property
    def pivots(self) -> List[int]:
        return sorted(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)


def solution(
    ctx: FieldCtx, rows: Dict[int, Dict[int, Fel]], width: int, m: int = 0
) -> Optional[Tuple[List[List[Fel]], List[List[Fel]]]]:
    """Read reduced rows [a | b], keyed by pivot as Echelon keeps them, as
    a x = b in width unknowns.  None if a pivot lies in b, else (x, kernel):
    x (width rows of m) with every free unknown zero, and one kernel vector
    per free unknown, in order, 1 there and 0 at the other free unknowns."""
    if any(p >= width for p in rows):
        return None
    zero = ctx.zero
    x = [[zero] * m for _ in range(width)]
    held: Dict[int, List[Tuple[int, Fel]]] = {}  # free unknown -> (pivot, entry) of the rows holding it
    for p, row in rows.items():
        for j, c in row.items():
            if j >= width:
                x[p][j - width] = c
            elif j != p:
                held.setdefault(j, []).append((p, c))
    kernel = []
    for f in sorted(set(range(width)).difference(rows)):
        vec = [zero] * width
        vec[f] = ctx.one
        for p, c in held.get(f, ()):
            vec[p] = -c
        kernel.append(vec)
    return x, kernel


def product_terms(
    shape: Tuple[int, int], left: Optional["Mat"] = None, right: Optional["Mat"] = None
) -> List[List[Tuple[int, Fel]]]:
    """For each entry of left * Z * right, row-major, its nonzero (entry of Z,
    coefficient) terms, Z of the given shape with entries numbered row-major.
    None stands for the identity; at least one factor is a matrix."""
    rows, cols = shape
    lsup = None if left is None else [[(l, a) for l, a in enumerate(row) if a] for row in left.data]
    if right is None:
        return [[(l * cols + j, a) for l, a in ls] for ls in lsup for j in range(cols)]
    rsup = [[(k, row[j]) for k, row in enumerate(right.data) if row[j]] for j in range(right.cols)]
    if lsup is None:
        return [[(i * cols + k, b) for k, b in rs] for i in range(rows) for rs in rsup]
    return [[(l * cols + k, a * b) for l, a in ls for k, b in rs] for ls in lsup for rs in rsup]


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

    @classmethod
    def _of(cls, ctx: FieldCtx, data: List[List[Fel]], cols: int) -> "Mat":
        """A matrix over rows made for it alone: kept as they are, unchecked."""
        m = cls.__new__(cls)
        m.ctx, m.data, m.rows, m.cols = ctx, data, len(data), cols
        return m

    # construction helpers

    @staticmethod
    def zeros(ctx: FieldCtx, rows: int, cols: int) -> "Mat":
        return Mat._of(ctx, [[ctx.zero] * cols for _ in range(rows)], cols)

    @staticmethod
    def scalar(ctx: FieldCtx, n: int, c: Fel) -> "Mat":
        """c times the n x n identity."""
        return Mat._of(ctx, [[c if i == j else ctx.zero for j in range(n)] for i in range(n)], n)

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> "Mat":
        return Mat.scalar(ctx, n, ctx.one)

    @staticmethod
    def column(ctx: FieldCtx, entries: Sequence[Fel]) -> "Mat":
        return Mat._of(ctx, [[e] for e in entries], 1)

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
        return Mat._of(
            self.ctx,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(-self.ctx.one)

    def scale(self, c: Fel) -> "Mat":
        return Mat._of(self.ctx, [[v * c if v else v for v in row] for row in self.data], self.cols)

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
        return Mat._of(self.ctx, out, other.cols)

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
        cols = [list(col) for col in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)]
        return Mat._of(self.ctx, cols, self.rows)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Mat._of(self.ctx, [a + b for a, b in zip(self.data, other.data)], self.cols + other.cols)

    def col(self, j: int) -> List[Fel]:
        return [self.data[i][j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(not v for row in self.data for v in row)

    def scalar_value(self) -> Optional[Fel]:
        """c when self is c times the identity (0 for the 0 x 0 matrix), else None."""
        if self.rows != self.cols:
            return None
        zero, data = self.ctx.zero, self.data
        c = data[0][0] if self.rows else zero
        # the diagonal first, so a dense block is turned down at its second
        # entry; plain loops, as most blocks read here are 1 x 1 to 3 x 3
        for i in range(1, self.rows):
            if data[i][i] != c:
                return None
        # then each row holds c once and zero elsewhere; count tests identity
        # before equality, and a finite field keeps one element per value
        zeros = self.cols - 1 if c else self.cols
        for row in data:
            if row.count(zero) != zeros:
                return None
        return c

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"Mat[{body}]"

    # elimination

    def rref(self) -> Echelon:
        """The reduced row echelon form of the rows, as an Echelon.

        Every elimination of a Mat goes through rref, the one name a caller
        timing this layer needs to wrap."""
        ech = Echelon()
        for row in self.data:
            ech.insert_terms(terms(row))
        return ech

    def rank(self) -> int:
        return self.rref().rank

    def _columns(self, js: List[int]) -> "Mat":
        return Mat._of(self.ctx, [[row[j] for j in js] for row in self.data], len(js))

    def nullspace(self) -> List["Mat"]:
        """Basis of the right kernel, as column vectors."""
        return [Mat.column(self.ctx, v) for v in solution(self.ctx, self.rref().rows, self.cols)[1]]

    def column_space(self) -> "Mat":
        """A matrix whose columns are a basis of the column space."""
        return self._columns(self.rref().pivots)

    def rank_factors(self) -> Tuple["Mat", "Mat"]:
        """B, C with self = B C: column_space() and the nonzero rows of the
        reduced form, from one elimination."""
        ech = self.rref()
        pivots, zero = ech.pivots, self.ctx.zero
        c = [dense(ech.rows[p], self.cols, zero) for p in pivots]
        return self._columns(pivots), Mat._of(self.ctx, c, self.cols)

    def image_and_kernel(self) -> Tuple["Mat", "Mat"]:
        """column_space() and a matrix whose columns are nullspace(), from one elimination."""
        ech = self.rref()
        kernel = Mat._of(self.ctx, solution(self.ctx, ech.rows, self.cols)[1], self.cols).transpose()
        return self._columns(ech.pivots), kernel

    def solve(self, rhs: "Mat") -> Optional["Mat"]:
        """One exact solution X of self * X = rhs, or None if inconsistent.

        Free variables are set to zero.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row mismatch")
        sol = solution(self.ctx, self.hstack(rhs).rref().rows, self.cols, rhs.cols)
        return None if sol is None else Mat._of(self.ctx, sol[0], rhs.cols)

    def inverse(self) -> Optional["Mat"]:
        """self^-1, or None if self is not square or is singular: [self | 1]
        has a pivot right of self's columns exactly when self is singular,
        and otherwise reduces to [1 | self^-1]."""
        if self.rows != self.cols:
            return None
        return self.solve(Mat.identity(self.ctx, self.rows))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    # serialization

    def to_json(self, memo: Optional[Dict[object, str]] = None) -> list:
        """Entry texts; the matrices of one document share one memo {value: text}."""
        memo = {} if memo is None else memo
        get, show = memo.get, self.ctx.show
        out = []
        for row in self.data:
            texts = []
            for v in row:
                text = get(v.val)
                if text is None:
                    text = memo[v.val] = show(v)
                texts.append(text)
            out.append(texts)
        return out

    @staticmethod
    def from_json(ctx: FieldCtx, data: list, rows: int, cols: int) -> "Mat":
        return _from_json(ctx, data, rows, cols, ctx.parse)


def _from_json(ctx: FieldCtx, data: list, rows: int, cols: int, parse: Callable[[str], Fel]) -> Mat:
    """Mat.from_json with each entry read by parse, which a caller loading
    many matrices can make remember the texts it has read.  A row that is
    not a list is named before a wrong shape, and a wrong shape before a
    bad entry."""
    not_rows = "a matrix must be a list of rows, each a list of entries"
    if not isinstance(data, list):
        raise ValueError(not_rows)
    misshapen = len(data) != rows
    for row in data:
        if not isinstance(row, list):
            raise ValueError(not_rows)
        misshapen = misshapen or len(row) != cols
    if misshapen:
        raise ValueError(f"matrix shape mismatch: expected {rows}x{cols}")
    return Mat._of(ctx, [[parse(v) for v in row] for row in data], cols)


def cut_vectors(ctx: FieldCtx, shapes: List[Tuple[int, int, int]], vectors: List[List[Fel]]) -> List[Dict[int, Mat]]:
    """Each coordinate vector cut into the (key, rows, columns) blocks of
    shapes, row-major, block after block."""
    out = []
    for vec in vectors:
        blocks, at = {}, 0
        for e, dw, dv in shapes:
            blocks[e] = Mat._of(ctx, [vec[at + i * dv : at + (i + 1) * dv] for i in range(dw)], dv)
            at += dw * dv
        out.append(blocks)
    return out


def fitting_power(m: Mat) -> Mat:
    """m squared until the exponent reaches its dimension: high enough that
    kernel and image split, and they are the same for every higher power."""
    e = 1
    while e < m.rows:
        m = m * m
        e *= 2
    return m
