"""Extending a one-flavor weight module to the full operator algebra.

A module carrying X and exactly one of Y, Y1 extends to the full algebra
exactly when the missing operator's entries solve a set of linear
equations: the upward product relation (through X), the downward product
relation, and the mixed relation Y1(tau-1) = Y(sigma-1) pin every entry
of the missing graded map against the known data.  Their ids and scalars
come from D's relation table, basering.PRODUCTS.  The R-twisting laws
hold automatically for any graded map, so they add no constraints.

The equations follow the grading.  The missing operator is one block
(a d_{k-1} x d_k matrix) per source offset k, and each constraint
instance touches exactly one block: the upward relation at k touches
block k+1, the downward and mixed relations at k touch block k.  So
every block is solved on its own, by feeding its instances in assembly
order, as terms, into one incremental echelon form over [row | rhs]; an
instance on a block without unknowns is the check 0 = rhs.

A block T'_s whose spaces V_s and V_{s-1} have one dimension n > 0, with
X_{s-1} = x 1 and the known operator at s equal to y 1, is scalar: each of
its three instances reads a T'_s = b 1, with (a, b) equal to (x, tx(s-1))
upward, (x, xt(s)) downward and (xt_known(s), xt(s) y) mixed.  Such an
instance is the n^2 single-term equations a z_ij = b [i = j], so the
block's solutions are held as one state instead of an echelon: free until
the first instance with a != 0 pins T'_s = t 1, t = b / a; an instance
with a = 0 and b != 0, or a t != b on a pinned block, is the conflict.
Those are exactly the instances after which the n^2 rows have no
solution, and a free block reads as particular 0 with the n^2 unit
vectors, row-major, as kernel, a pinned one as t 1 with none: what the
reduced echelon form of the rows gives.  (On a module that passes its
flavor's relations only a = 0 can conflict: both products of the known
pair are x y, so with x != 0 the three equations agree, and x = 0 makes
every a zero.)

The solution set is empty, a point, or an affine space, reported as
IMPOSSIBLE (with the first instance, in offset-major assembly order,
after which the equations have no solution), UNIQUE, or FAMILY (with a
representative, free coordinates set to zero, and a basis of the
homogeneous solution space).

Every representative is verified against all of D's relations before it
is returned, but only the relations that read the solved operator are
checked again: its two products, its two twist laws and the mixed
relation.  The flavor's four relations and X's two laws read the same
Mat objects, labels and orbit points in the extended module as in the
input, whose flavor check has already passed them at every offset, so
they hold there too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .basering import MIXED_ID, PRODUCTS
from .fields import Fel, FieldCtx
from .linalg import Echelon, Mat, cut_vectors, product_terms, solution
from .orbits import LOWERING
from .verify import check_relations
from .wmod import WeightModule

IMPOSSIBLE = "IMPOSSIBLE"
UNIQUE = "UNIQUE"
FAMILY = "FAMILY"


@dataclass
class ExtensionResult:
    """Outcome of an extension solve.

    kind is IMPOSSIBLE, UNIQUE, or FAMILY.  UNIQUE and FAMILY carry a
    representative module that passes the full relation check; FAMILY
    adds the affine dimension k and a basis of the homogeneous solution
    space (per-offset matrices for the missing operator).  IMPOSSIBLE
    carries the first violated constraint instead.
    """

    kind: str
    missing: str
    k: int = 0
    representative: Optional[WeightModule] = None
    homogeneous_basis: List[Dict[int, Mat]] = field(default_factory=list)
    conflict: Optional[dict] = None

    def member(self, coefs: Sequence[Fel]) -> WeightModule:
        """The family member at representative + sum of coefs * basis."""
        if self.representative is None:
            raise ValueError("an IMPOSSIBLE result has no members")
        if len(coefs) != len(self.homogeneous_basis):
            raise ValueError(f"expected {len(self.homogeneous_basis)} coefficients")
        table = dict(self.representative.ops[self.missing])
        for c, maps in zip(coefs, self.homogeneous_basis):
            for k, m in maps.items():
                table[k] = table[k] + m.scale(c)
        ops = dict(self.representative.ops)
        ops[self.missing] = table
        return self.representative.with_ops(ops)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "missing": self.missing}
        memo: Dict[object, str] = {}  # one for the representative and the basis
        if self.kind == FAMILY:
            out["k"] = self.k
        if self.representative is not None:
            out["representative"] = self.representative.to_json(memo)
        if self.homogeneous_basis:
            out["homogeneous_basis"] = [
                [{"offset": k, "matrix": maps[k].to_json(memo)} for k in sorted(maps)]
                for maps in self.homogeneous_basis
            ]
        if self.conflict is not None:
            out["conflict"] = self.conflict
        return out


def _missing_operator(V: WeightModule) -> str:
    if not V.has_op("X"):
        raise ValueError("extension needs the X operator")
    have_y, have_y1 = V.has_op("Y"), V.has_op("Y1")
    if have_y and have_y1:
        raise ValueError("both Y and Y1 are already present; nothing to extend")
    if not (have_y or have_y1):
        raise ValueError("extension needs exactly one of Y, Y1 present")
    return "Y" if not have_y else "Y1"


def extend_to_D(V: WeightModule) -> ExtensionResult:
    """Solve for the missing one of Y, Y1 so the full relation set holds.

    The present flavor's relations must already pass.  Every entry of the
    missing operator (graded maps one step down, wrapping on circular
    orbits, omitted at window edges) becomes an unknown; each relation
    instance constrains the block of one source offset, the blocks are
    solved apart, and the solution set classifies the extension.
    """
    missing = _missing_operator(V)
    # the flavor the module already carries keeps the known lowering operator
    flavor, known = next((f, T) for f, T in LOWERING.items() if T != missing)
    rep = check_relations(V, flavor)
    if not rep.passed:
        first = rep.violations[0]
        raise ValueError(
            f"the {flavor.value} relations must pass before extending; "
            f"{first['relation']} fails at offset {first['offset']}"
        )

    ctx = V.ctx
    rel = PRODUCTS[missing]

    # unknowns: entries of the missing operator, one block per source
    # offset, row-major within a block and offset-major across blocks
    sources = V.op_sources(missing)
    block = {k: b for b, k in enumerate(sources)}
    widths = [V.dim(V.op_target(missing, k)) * V.dim(k) for k in sources]

    # a scalar block (see the module docstring): (x, y) of X below it and
    # the known operator at it, both c 1 between spaces of one dimension
    flat: Dict[int, Tuple[Fel, Fel]] = {}
    for s in sources:
        d = V.op_target(missing, s)
        if V.dim(s) and V.dim(d) == V.dim(s):
            x, y = V.op("X", d).scalar_value(), V.op(known, s).scalar_value()
            if x is not None and y is not None:
                flat[s] = x, y

    lo, hi = (None, None) if V.circular else V.window
    # (relation, offset, block, equations as terms, rhs), or for a scalar
    # block (relation, offset, block, a, b) standing for a T' = b 1
    instances: List[tuple] = []

    def add(rel_id: str, k: int, b: int, terms: List[List[Tuple[int, Fel]]], rhs: Mat) -> None:
        instances.append((rel_id, k, b, terms, [c for row in rhs.data for c in row]))

    for k in V.offsets():
        dk = V.dim(k)
        if not dk:
            continue
        # upward product: T'_{k+1} X_k = c(k) I on V_k
        if V.circular or k != hi:
            u = V.op_target("X", k)
            c = V.scalar(rel.tx, k)
            if u in flat:
                instances.append((rel.tx_id, k, block[u], flat[u][0], c))
            else:
                add(rel.tx_id, k, block[u], product_terms((dk, V.dim(u)), right=V.op("X", k)), Mat.scalar(ctx, dk, c))
        # downward product: X_{k-1} T'_k = c(k) I on V_k
        if V.circular or k != lo:
            d = V.op_target(missing, k)
            dd = V.dim(d)
            c = V.scalar(rel.xt, k)
            # mixed relation Y1 (X Y) = Y (X Y1): the missing operator times
            # the known one's X T equals the known operator times the missing one's
            xt_known = V.scalar(PRODUCTS[known].xt, k)
            if k in flat:
                x, y = flat[k]
                instances.append((rel.xt_id, k, block[k], x, c))
                instances.append((MIXED_ID, k, block[k], xt_known, y * c))
            else:
                add(rel.xt_id, k, block[k], product_terms((dd, dk), left=V.op("X", d)), Mat.scalar(ctx, dk, c))
                if dd:
                    left = Mat.scalar(ctx, dd, xt_known)
                    add(MIXED_ID, k, block[k], product_terms((dd, dk), left=left), V.op(known, k).scale(c))

    conflict, particular, kernel = solve_blocks(ctx, widths, [inst[2:] for inst in instances])
    if conflict is not None:
        return ExtensionResult(IMPOSSIBLE, missing, conflict=_conflict_json(ctx, widths, instances[conflict]))

    shapes = [(k, w // V.dim(k), V.dim(k)) for k, w in zip(sources, widths) if w]
    rep, *basis = cut_vectors(ctx, shapes, [particular, *kernel])
    ops = dict(V.ops)
    ops[missing] = rep
    module = V.with_ops(ops)
    # the flavor check covers the D relations that do not read the missing
    # operator (see the module docstring)
    full = check_relations(module, "D", reading=missing)
    if not full.passed:
        raise RuntimeError("extension produced a module that fails re-verification")

    if not basis:
        return ExtensionResult(UNIQUE, missing, representative=module)
    return ExtensionResult(FAMILY, missing, k=len(basis), representative=module, homogeneous_basis=basis)


def solve_blocks(
    ctx: FieldCtx,
    widths: Sequence[int],
    instances: Sequence[Tuple[int, object, object]],
) -> Tuple[Optional[int], Optional[List[Fel]], Optional[List[List[Fel]]]]:
    """Solve a block-diagonal linear system given as a list of instances.

    Block b has widths[b] unknowns, laid out block-major.  An instance
    (b, equations, rhs) is a group of equations on block b alone, each the
    (unknown of the block, coefficient) terms of its left side, as
    product_terms writes them.  An instance (b, a, c) with a a field element
    is a scalar one, a Z = c 1 on the n x n block Z of n^2 = widths[b] > 0
    unknowns; a block that has taken only scalar instances keeps no echelon,
    only "free" or "pinned at t".  Returns (conflict, None, None) when there
    is no solution, conflict being the index of the first instance after
    which the instances so far have none; otherwise (None, particular,
    kernel): the solution with free unknowns zero and a basis of the
    homogeneous solutions, one per free unknown in order, exactly as the
    reduced echelon form of the whole system gives them.
    """
    # per block: None (free), the pinned t of a scalar block, or an Echelon
    held: List[object] = [None] * len(widths)
    for n, (b, equations, rhs) in enumerate(instances):
        w, state = widths[b], held[b]
        if isinstance(equations, Fel) and not isinstance(state, Echelon):
            if state is None:
                if equations:
                    held[b] = rhs / equations
                elif rhs:
                    return n, None, None  # 0 = c
            elif equations * state != rhs:
                return n, None, None
            continue
        groups = [_scalar_rows(ctx, w, equations, rhs) if isinstance(equations, Fel) else (equations, rhs)]
        if not isinstance(state, Echelon):
            # the block's first generic instance: from here on it is an
            # echelon, holding first the rows of T' = t 1 if it was pinned
            if state is not None:
                groups.insert(0, _scalar_rows(ctx, w, ctx.one, state))
            state = held[b] = Echelon()
        for eqs, cs in groups:
            for eq, c in zip(eqs, cs):
                state.insert_terms(list(eq) + [(w, c)] if c else eq)
        if w in state.rows:
            return n, None, None  # a pivot reached the rhs column: 0 = 1
    particular: List[Fel] = []
    kernel: List[List[Fel]] = []
    zero, total, base = ctx.zero, sum(widths), 0
    for state, w in zip(held, widths):
        if state is None or isinstance(state, Echelon):
            x, free = solution(ctx, {} if state is None else state.rows, w, 1)
            particular.extend(v for v, in x)
            kernel.extend([zero] * base + vec + [zero] * (total - base - w) for vec in free)
        else:
            particular.extend(_diagonal(ctx, w, state))  # pinned at t: t 1
        base += w
    return None, particular, kernel


def _diagonal(ctx: FieldCtx, w: int, c: Fel) -> List[Fel]:
    """c 1 on a block of w = n^2 unknowns, row-major."""
    step = isqrt(w) + 1
    return [ctx.zero if j % step else c for j in range(w)]


def _scalar_rows(ctx: FieldCtx, w: int, a: Fel, c: Fel) -> Tuple[List[List[Tuple[int, Fel]]], List[Fel]]:
    """a Z = c 1 on a block of w = n^2 unknowns, as its n^2 single-term
    equations and their right sides."""
    return [[(j, a)] if a else [] for j in range(w)], _diagonal(ctx, w, c)


def _conflict_json(ctx: FieldCtx, widths: Sequence[int], instance) -> dict:
    """Name an instance that makes the system unsolvable; show 0 = b if it holds one."""
    rel_id, offset, b, equations, rhs = instance
    if isinstance(equations, Fel):
        equations, rhs = _scalar_rows(ctx, widths[b], equations, rhs)
    conflict = {"relation": rel_id, "offset": offset}
    for eq, c in zip(equations, rhs):
        if c and not eq:
            # the instance is inconsistent on its own: 0 = c
            conflict["equation"] = {"lhs": ctx.show(ctx.zero), "rhs": ctx.show(c)}
            break
    return conflict
