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

The solution set is empty, a point, or an affine space, reported as
IMPOSSIBLE (with the first instance, in offset-major assembly order,
after which the equations have no solution), UNIQUE, or FAMILY (with a
representative, free coordinates set to zero, and a basis of the
homogeneous solution space).  Representatives are re-verified against
the full relation set before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .basering import MIXED_ID, PRODUCTS
from .fields import Fel, FieldCtx
from .linalg import Echelon, Mat, product_terms, solution
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
        if self.kind == FAMILY:
            out["k"] = self.k
        if self.representative is not None:
            out["representative"] = self.representative.to_json()
        if self.homogeneous_basis:
            out["homogeneous_basis"] = [
                [{"offset": k, "matrix": maps[k].to_json()} for k in sorted(maps)]
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

    lo, hi = (None, None) if V.circular else V.window
    instances: List[Tuple[str, int, int, List[List[Tuple[int, Fel]]], List[Fel]]] = []

    def add(rel_id: str, k: int, b: int, terms: List[List[Tuple[int, Fel]]], rhs: Mat) -> None:
        instances.append((rel_id, k, b, terms, [c for row in rhs.data for c in row]))

    for k in V.offsets():
        dk = V.dim(k)
        if not dk:
            continue
        # upward product: T'_{k+1} X_k = c(k) I on V_k
        if V.circular or k != hi:
            u = V.op_target("X", k)
            terms = product_terms((dk, V.dim(u)), right=V.op("X", k))
            add(rel.tx_id, k, block[u], terms, Mat.scalar(ctx, dk, V.scalar(rel.tx, k)))
        # downward product: X_{k-1} T'_k = c(k) I on V_k
        if V.circular or k != lo:
            d = V.op_target(missing, k)
            dd = V.dim(d)
            c = V.scalar(rel.xt, k)
            add(rel.xt_id, k, block[k], product_terms((dd, dk), left=V.op("X", d)), Mat.scalar(ctx, dk, c))
            # mixed relation Y1 (X Y) = Y (X Y1): the missing operator times
            # the known one's X T equals the known operator times the missing one's
            if dd:
                s = Mat.scalar(ctx, dd, V.scalar(PRODUCTS[known].xt, k))
                rhs = V.op(known, k).scale(c)
                add(MIXED_ID, k, block[k], product_terms((dd, dk), left=s), rhs)

    conflict, particular, kernel = solve_blocks(ctx, widths, [inst[2:] for inst in instances])
    if conflict is not None:
        return ExtensionResult(IMPOSSIBLE, missing, conflict=_conflict_json(ctx, instances[conflict]))

    def as_maps(vec: List[Fel]) -> Dict[int, Mat]:
        maps, base = {}, 0
        for k, w in zip(sources, widths):
            dk = V.dim(k)
            if w:
                maps[k] = Mat._of(ctx, [vec[base + i * dk : base + (i + 1) * dk] for i in range(w // dk)], dk)
            base += w
        return maps

    ops = dict(V.ops)
    ops[missing] = as_maps(particular)
    module = V.with_ops(ops)
    full = check_relations(module, "D")
    if not full.passed:
        raise RuntimeError("extension produced a module that fails re-verification")

    basis = [as_maps(vec) for vec in kernel]
    if not basis:
        return ExtensionResult(UNIQUE, missing, representative=module)
    return ExtensionResult(FAMILY, missing, k=len(basis), representative=module, homogeneous_basis=basis)


def solve_blocks(
    ctx: FieldCtx,
    widths: Sequence[int],
    instances: Sequence[Tuple[int, Sequence[Sequence[Tuple[int, Fel]]], Sequence[Fel]]],
) -> Tuple[Optional[int], Optional[List[Fel]], Optional[List[List[Fel]]]]:
    """Solve a block-diagonal linear system given as a list of instances.

    Block b has widths[b] unknowns, laid out block-major.  An instance
    (b, equations, rhs) is a group of equations on block b alone, each the
    (unknown of the block, coefficient) terms of its left side, as
    product_terms writes them.  Returns (conflict, None, None) when there is
    no solution, conflict being the index of the first instance after which
    the instances so far have none; otherwise (None,
    particular, kernel): the solution with free unknowns zero and a basis
    of the homogeneous solutions, one per free unknown in order, exactly
    as the reduced echelon form of the whole system gives them.
    """
    echelons = [Echelon() for _ in widths]
    for n, (b, equations, rhs) in enumerate(instances):
        ech, w = echelons[b], widths[b]
        for eq, c in zip(equations, rhs):
            ech.insert_terms(list(eq) + [(w, c)] if c else eq)
        if w in ech.rows:
            return n, None, None  # a pivot reached the rhs column: 0 = 1
    particular: List[Fel] = []
    kernel: List[List[Fel]] = []
    zero, total, base = ctx.zero, sum(widths), 0
    for ech, w in zip(echelons, widths):
        x, free = solution(ctx, ech.rows, w, 1)
        particular.extend(v for v, in x)
        kernel.extend([zero] * base + vec + [zero] * (total - base - w) for vec in free)
        base += w
    return None, particular, kernel


def _conflict_json(ctx: FieldCtx, instance) -> dict:
    """Name an instance that makes the system unsolvable; show 0 = b if it holds one."""
    rel_id, offset, _, equations, rhs = instance
    conflict = {"relation": rel_id, "offset": offset}
    for eq, b in zip(equations, rhs):
        if b and not eq:
            # the instance is inconsistent on its own: 0 = b
            conflict["equation"] = {"lhs": ctx.show(ctx.zero), "rhs": ctx.show(b)}
            break
    return conflict
