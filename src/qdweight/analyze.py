"""Structural analysis of weight modules.

Weight dimensions, equidimensionality, irreducibility, graded endomorphism
rings, direct-sum decomposition, and isomorphism testing.  Everything is
exact.  Structure verdicts (irreducible, indecomposable, decompose,
equidimension) are decided only for circular, finite-dimensional modules;
a windowed truncation cannot answer for the infinite module it cuts from,
so those inputs come back NOT_APPLICABLE.

Decomposition works through the graded endomorphism ring: any endomorphism
whose Fitting power has rank strictly between 0 and the total dimension
splits the module into kernel and image, both graded submodules.  Searches
over the endomorphism ring are exhaustive (up to scalars) when the
coefficient space is small, otherwise seeded and bounded; a bounded search
that finds nothing reports UNKNOWN rather than guessing.

Every NO verdict carries a witness that can be re-verified directly:
a proper generated submodule, a nontrivial idempotent, or a dimension
mismatch.  YES verdicts for isomorphism carry the intertwiner.

Graded maps are solved on runs of invertible X links.

* Where X is invertible.  In a D-module, YX = tau and Y1X = q sigma - 1 at
  offset k make X_k injective unless tau_k = 0 and q sigma_k = 1 (a double
  break), and XY = tau - 1, XY1 = sigma - 1 at k+1 read the same two scalars
  of point k, so X_k is onto there as well.  X is therefore invertible off
  the double breaks, and a circular module over a finite field has at most
  one of them; over AQ or A1 alone X is invertible off that flavour's breaks.
* The transport.  A graded map phi: V -> W commuting with X satisfies
  phi_{k+1} X^V_k = X^W_k phi_k.  Where X^W_k is invertible this is
  phi_k = (X^W_k)^-1 phi_{k+1} X^V_k.  Nothing else about the modules is
  used, so it holds whether or not V and W satisfy D's relations.  Where
  X = 1 the transport is carried over unchanged: no inverse is taken and
  no product formed, and an offset that reaches its run's top across X = 1
  links only has transport 1, recorded as none.  V and W are read apart,
  so one of them may have a transport at an offset where the other has
  none.  Every module built by wmod.junction_module is X = 1 on every link
  but one.
* The system.  A run is a maximal chain of links where X is square and
  invertible in V and in W, and no run crosses the orbit's last link.  On
  a run with top e, phi_k = B_k^-1 Z A_k with Z = phi_e,
  A_k = X^V_{e-1} ... X^V_k and B_k the same in W, so one unknown block per
  run fixes the map.  Every other operator instance phi_t O^V = O^W phi_k,
  times B_t on the left and A_k^-1 on the right, is
  Z_t (A_t O^V A_k^-1) = (B_t O^W B_k^-1) Z_k on the representatives'
  blocks, with the same solutions.  On a circular orbit the last link stays
  an equation; when every link is invertible the orbit is one run and that
  equation is Z M^V = M^W Z for the monodromies M = X_{r-2} ... X_0 X_{r-1}
  at r-1, so End is the centralizer of M.  When every X is singular each
  offset is its own run, every transport is 1, and the system is the dense
  one in sum d_k^2 unknowns, row for row.
* The output.  The unknowns are numbered top by top in offset order,
  row-major: the output's (offset, row, column) order restricted to the
  tops' blocks.  A lifted map that is 0 at its run's top is 0 on the whole
  run, so every nonzero lifted map has its last nonzero coordinate in a
  top's block.  The reduced system's pivots lead their rows, so the kernel
  vector of a free unknown f is 1 at f, 0 at every other free unknown and
  nonzero elsewhere only at pivots before f: its last nonzero coordinate
  is f.  Lifted, the kernel vectors are therefore the reduced echelon basis
  of the solution space in reversed coordinate order, listed by last
  nonzero coordinate, and they are lifted as they are.  That form is
  unique, so it depends only on the solution space, not on how it was
  solved: it is the basis the dense system's nullspace gave, and Hom, End,
  iso and decompose report the same bytes.
* The Fitting split.  In End, phi_k = A_k^-1 Z A_k is conjugate to the
  representative's block, and so is its Fitting power: the stable image and
  kernel at k are A_k^-1 times those at e.  The split's rank is the sum of
  the representatives' ranks times their run lengths.  The projector onto
  the stable image along the stable kernel is unique, so A_k^-1 P_e A_k is
  the projector a split of each weight space finds.  Its rank is the total
  dimension exactly when phi is invertible at every offset, a unit of End,
  and 0 exactly when phi is nilpotent; every other phi splits.  The
  projector is kept at the representatives.
* The sweep.  Lifting Z to phi_k = B_k^-1 Z A_k is linear, so a combination
  of basis maps is the lift of the same combination of their blocks at the
  representatives, and the sweep combines those blocks only.  With A_k and
  B_k invertible, phi_k is invertible exactly when Z is, so an intertwiner
  is found on the representatives, and only the winner is lifted: the same
  map, and the same bytes, as combining every offset.
* The split test in End.  End is an algebra with a unit, and a map phi in
  it acts on End by L(psi) = phi psi.  L^j is left multiplication by
  phi^j, and L psi = 0 at psi = 1 only if phi = 0, so L is nilpotent
  exactly when phi is.  L is invertible exactly when phi is a unit: if
  phi psi = 1, phi is onto, hence invertible, at every weight space, and
  its inverse there commutes with the operators as phi does.  So by the
  Fitting split, phi splits the module exactly when L is neither
  invertible nor nilpotent, which is when _fitting_projector finds a
  projector.  A product of two maps of End is, at a top, the product of
  their blocks there, and column j of L_i is the coordinates of
  phi_i phi_j: its entries at the basis maps' last nonzero coordinates,
  where basis map k is 1 and the others are 0 (the output).  So the table
  L_1 ... L_n is read off the tops once per End, and the sweep tests each
  candidate sum c_i phi_i on sum c_i L_i, n x n, in place of the module's
  blocks.  It forms only a candidate that passes on the module, where
  _fitting_projector builds the projector, and goes on if it does not.
  The verdicts are the same either way, so an End whose n x n matrices
  have more entries than the tops' blocks, such as that of many copies
  of one module, is swept on the blocks, as before.
* Summands by restriction.  A split's projector is p = B C at each
  offset, with B the summand's basis, the pivot columns of p, and C the
  nonzero rows of p's reduced form.  B's columns are columns of the
  idempotent p, so B C B = p B = B and, B of full column rank, C B = 1.
  p commutes with an operator O from k to t, so O B_k = p_t O B_k =
  B_t (C_t O B_k): the summand's operator, the one Z with B_t Z = O B_k,
  is C_t O B_k, with no solve.  It is c 1 where O is c 1 and k and t share
  one factor pair, and a square C is 1, as is its B.  Likewise a map psi
  of End(U), U the summand, extended by 0 on the other summand, is a map
  of End(V), and C (that map) B = psi; and C phi B is in End(U) for every
  phi in End(V).  So C phi_i B over End(V)'s basis spans End(U), and in
  reduced echelon form in reversed coordinate order it is the canonical
  basis: the bytes a solve of End(U) gives.  Two facts keep a whole
  decomposition at V's run tops.  (1) For an idempotent b c of End(U), in
  U's coordinates, B b c C has rank factors B b, c C: a column of it off
  B's pivots depends on earlier columns, as C is reduced, so its pivots
  are B's indexed by b's, and C is fixed by B.  (2) U's dimension is
  constant along V's runs, where X restricts to the invertible C X B, so
  a map of End(U) that is 0 at a run's top is 0 on the run, and the
  canonical basis, which depends only on the space, is read at V's tops
  whatever U's own runs.  So a piece of the split tree is its factors at
  V's tops with its End there, and only a final summand is built: B C
  lifted along V's runs is factored again at each offset with a
  transport, and every other offset takes its top's pair.
* The collapse.  A link k -> k+1 collapses when X_k is invertible and each
  lowering operator T of the algebra has T_{k+1} X_k = c_T 1, some c_T
  nonzero.  In a D-module these are tau and q sigma - 1 at point k, but a
  module may break the relations, so each link is checked on its blocks.
  There T_{k+1} = c_T X_k^-1, so a graded subspace N closed under the
  operators has X_k N_k = N_{k+1}, X_k^-1 being T_{k+1}/c_T for a nonzero
  c_T, and on a run N_k = A_k^-1 N_e.  At the tops X_k is 1 and T_{k+1}
  is c_T, which keep every subspace, and any other instance O from k to t
  is A_t O A_k^-1.  So the graded submodules match, by N -> N_e, the
  families of subspaces at the tops closed under the moved instances
  between runs, and dim N is the sum of dim N_e times e's run length.  V*
  collapses on the same links, and f in V*_k is (A_k^-1)^T f at the top.
* Irreducibility (Norton's criterion; Parker 1984, Holt and Rees 1994).
  Let k0 be the first offset with V_k0 nonzero, and let the operators act
  on V* by their transposes, each from the dual of its target to the dual
  of its source.  V is simple iff every line of V_k0 generates V and every
  line of V*_k0 generates V*.  For a proper nonzero graded submodule N:
  if N_k0 is nonzero, a line of N_k0 generates a subspace of N; if N_k0 is
  0, its annihilator N^perp is a proper graded submodule of V* containing
  V*_k0.  Conversely V is simple iff V* is, and then every line generates.
  Each line is spun on the collapse, from its top, along the moved
  instances between tops; a run ends at a link that does not collapse, so
  a module with none is spun offset by offset.  A NO witness lifts the top
  spans to A_k^-1 N_e at every offset, in reduced echelon form, which is
  unique: the bytes of the spin at every offset.  The spin carries a block
  c 1 as the scalar c and maps a vector across it by scaling, which gives
  the vector the block's rows give.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar

from .fields import Fel, FieldCtx
from .linalg import Echelon, Mat, cut_vectors, dense, fitting_power, product_terms, solution, terms
from .orbits import Subalgebra
from .wmod import WeightModule, as_subalgebra, default_labels, op_names_for

YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"
NOT_APPLICABLE = "NOT_APPLICABLE"

WINDOWED_REASON = "only decided for circular modules; a windowed truncation cannot answer for the infinite module"
NO_SPLIT_FOUND = "no splitting endomorphism found within the trial budget"

# exhaustive search caps: coefficient lines for endomorphism/intertwiner
# sweeps, weight-vector lines for irreducibility, random trials otherwise
EXHAUSTIVE_LINES = 2048
DEFAULT_LINE_BUDGET = 20000
DEFAULT_TRIALS = 200


class NotApplicable(ValueError):
    """The structural question is not defined for this input."""


@dataclass
class Verdict:
    """Outcome of a structural check.

    kind is YES, NO, UNKNOWN, or NOT_APPLICABLE.  NO always carries a
    machine-checkable witness; UNKNOWN and NOT_APPLICABLE carry a reason.
    """

    kind: str
    witness: Optional[dict] = None
    reason: Optional[str] = None

    @staticmethod
    def yes(witness: Optional[dict] = None) -> "Verdict":
        return Verdict(YES, witness=witness)

    @staticmethod
    def no(witness: dict) -> "Verdict":
        return Verdict(NO, witness=witness)

    @staticmethod
    def unknown(reason: str) -> "Verdict":
        return Verdict(UNKNOWN, reason=reason)

    @staticmethod
    def not_applicable(reason: str) -> "Verdict":
        return Verdict(NOT_APPLICABLE, reason=reason)

    @property
    def is_yes(self) -> bool:
        return self.kind == YES

    @property
    def is_no(self) -> bool:
        return self.kind == NO

    def to_json(self) -> dict:
        out = {"verdict": self.kind}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass
class EndBasis:
    """Basis of the graded endomorphisms commuting with an algebra's action.

    Each basis element is a per-offset family of square blocks; the family
    commutes with every stored operator matrix of the chosen algebra.  runs
    are the module's runs, on which it was solved, and tops holds each
    map's blocks at their representatives, in offset order, which fix it;
    maps lifts them to every offset when first read.
    """

    algebra: Subalgebra
    tops: List[Dict[int, Mat]]
    runs: Runs = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.tops)

    @cached_property
    def maps(self) -> List[Dict[int, Mat]]:
        return [self.runs.lift(blocks) for blocks in self.tops]

    def to_json(self) -> dict:
        memo: Dict[object, str] = {}
        return {
            "algebra": self.algebra.value,
            "dim": self.dim,
            "basis": [_maps_to_json(m, memo) for m in self.maps],
        }


@dataclass
class Decomposition:
    """Direct-sum decomposition into (believed) indecomposable summands.

    complete is False when a bounded random search ran out of budget, in
    which case some summand may still split further.
    """

    summands: List[WeightModule]
    complete: bool
    reason: Optional[str] = None

    @property
    def count(self) -> int:
        return len(self.summands)

    def to_json(self) -> dict:
        memo: Dict[object, str] = {}
        out = {
            "count": self.count,
            "complete": self.complete,
            "summands": [v.to_json(memo) for v in self.summands],
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# closure


# An arrow acts by the columns of its block, each the (row, entry) terms of
# its nonzero entries, or by c when the block is c 1; Arrows holds them by
# source.  Tops holds graded maps at the run tops, Factors rank factors
# B, C, Split a projector with its rank, and Ones the c 1 blocks that cuts
# share.  Like basering.Scalar, the aliases exist for the type checker only.
if TYPE_CHECKING:
    from typing import Union

    Action = Union[Fel, List[List[Tuple[int, Fel]]]]
    Arrows = Dict[int, List[Tuple[int, Action]]]
    Tops = List[Dict[int, Mat]]
    Factors = Dict[int, Tuple[Mat, Mat]]
    Ones = Dict[Tuple[int, Fel], Mat]
    Split = Tuple[Dict[int, Mat], int]


def _arrows(V: WeightModule, runs: Runs, names: Sequence[str]) -> Tuple[Arrows, Arrows]:
    """The arrows of V and of V* between the nonzero run tops of runs,
    which collapse for the names' lowering operators: for each top, the
    (target top, action) of the named operator instances between nonzero
    weight spaces that do not lie inside a run, where X is 1 and T is c_T,
    moved to the tops (module docstring).  An action is the block's columns
    as terms, or the scalar c of a block c 1.  In V* an operator O from
    V_k to V_t acts from V*_t to V*_k by its transpose, in the dual bases.
    """
    tops = [e for e in runs.members if V.dim(e)]
    out: Arrows = {e: [] for e in tops}
    dual: Arrows = {e: [] for e in tops}
    for name in names:
        inside = runs.links if name == "X" else {k + 1 for k in runs.links}
        for k in V.op_sources(name):
            t = V.op_target(name, k)
            if k not in inside and V.dim(k) and V.dim(t):
                block = runs.to_reps(runs.v, t, V.op(name, k), k)
                e, u, c = runs.rep[k], runs.rep[t], block.scalar_value()
                if c is None:
                    out[e].append((u, [terms(col) for col in block.transpose().data]))
                    dual[u].append((e, [terms(row) for row in block.data]))
                else:
                    out[e].append((u, c))
                    dual[u].append((e, c))
    return out, dual


def _spin(ctx: FieldCtx, arrows: Arrows, seeds: Sequence[Tuple[int, Sequence[Fel]]]) -> Dict[int, Echelon]:
    """Smallest graded subspace containing the seeds and closed under the
    arrows; a scalar arrow maps a vector by scaling it."""
    spans = {k: Echelon() for k in arrows}
    queue: List[Tuple[int, List[Tuple[int, Fel]]]] = []

    def add(k: int, vec: List[Tuple[int, Fel]]) -> None:
        lead = spans[k].insert_terms(vec)
        if lead is not None:
            queue.append((k, list(spans[k].rows[lead].items())))

    for k, vec in seeds:
        add(k, terms(vec))
    while queue:
        k, vec = queue.pop()
        for tgt, act in arrows[k]:
            if isinstance(act, Fel):
                add(tgt, [(j, a * act) for j, a in vec])
            else:
                add(tgt, [(i, a * c) for j, c in vec for i, a in act[j]])
    return spans


def _moved(ctx: FieldCtx, runs: Runs, k: int, vec: List[Fel], dual: bool = False) -> Tuple[int, List[Fel]]:
    """A vector of V_k at its run's top, A_k v, or with dual one of V*_k,
    (A_k^-1)^T f, which keeps the pairing: f(v) = (A_k^-1)^T f (A_k v)."""
    if k in runs.v:
        rows = zip(*runs.v[k][1].data) if dual else runs.v[k][0].data
        vec = [sum((a * c for a, c in zip(row, vec) if c), ctx.zero) for row in rows]
    return runs.rep[k], vec


def _spans_to_json(V: WeightModule, runs: Runs, spans: Dict[int, Echelon]) -> List[dict]:
    """A spin's spans at the run tops, lifted to A_k^-1 N_e at each offset k."""
    show, zero = V.ctx.show, V.ctx.zero
    out = []
    for k in V.offsets():
        s = spans.get(runs.rep[k])
        if s is not None and s.rank:
            if k in runs.v:  # in reduced echelon form, which is unique
                inverse, lifted = runs.v[k][1].data, Echelon()
                for row in s.rows.values():
                    lifted.insert_terms(terms([sum((r[j] * c for j, c in row.items()), zero) for r in inverse]))
                s = lifted
            rows = (dense(s.rows[p], V.dim(k), zero) for p in s.pivots)
            out.append({"offset": k, "basis": [[show(c) for c in row] for row in rows]})
    return out


def _maps_to_json(maps: Dict[int, Mat], memo: Dict[object, str]) -> List[dict]:
    """Each offset's matrix, through Mat.to_json's memo; a block object that
    Runs.lift handed to several offsets is written once, its rows shared."""
    written: Dict[int, list] = {}
    out = []
    for k in sorted(maps):
        m = maps[k]
        rows = written.get(id(m))
        if rows is None:
            rows = written[id(m)] = m.to_json(memo)
        out.append({"offset": k, "matrix": rows})
    return out


def _op_names(algebra, *modules: WeightModule) -> Tuple[str, ...]:
    """The algebra's operator names; every module must carry them all."""
    names = op_names_for(algebra)
    for V in modules:
        missing = [n for n in names if not V.has_op(n)]
        if missing:
            raise ValueError(f"module has no operator(s) {', '.join(missing)}")
    return names


# dimensions


def weight_dims(V: WeightModule) -> List[Tuple[int, int]]:
    """Dimensions of the nonzero weight spaces, in offset order."""
    return [(k, V.dim(k)) for k in V.offsets() if V.dim(k)]


def equidimension_check(V: WeightModule) -> Verdict:
    """Are all weight spaces of a circular module the same dimension?"""
    if not V.circular:
        return Verdict.not_applicable(WINDOWED_REASON)
    offsets = V.offsets()
    dims = [V.dim(k) for k in offsets]
    for k, d in zip(offsets, dims):
        if d != dims[0]:
            return Verdict.no(
                {
                    "kind": "dimension_mismatch",
                    "offsets": [offsets[0], k],
                    "dims": [dims[0], d],
                }
            )
    return Verdict.yes()


# irreducibility


def _unit_lines(ctx: FieldCtx, dim: int) -> Iterator[List[Fel]]:
    """Canonical representatives of the lines in ctx^dim.

    First nonzero coordinate normalized to 1; (q^dim - 1)/(q - 1) vectors.
    """
    elements = list(ctx.all_elements())
    for lead in range(dim):
        for tail in itertools.product(elements, repeat=dim - lead - 1):
            yield [ctx.zero] * lead + [ctx.one] + list(tail)


def _unit_line_count(ctx: FieldCtx, dim: int) -> int:
    """How many vectors _unit_lines(ctx, dim) yields."""
    return (ctx.order**dim - 1) // (ctx.order - 1)


def is_irreducible(V: WeightModule, algebra, budget: int = DEFAULT_LINE_BUDGET) -> Verdict:
    """Is the module simple, with no proper nonzero submodule?

    Any submodule of a weight module is graded, so V is simple iff every
    weight line generates V, and a circular module lives over a finite
    field, so its lines can be enumerated.  By Norton's criterion (module
    docstring) the lines of the first nonzero weight space V_k0 decide it:
    a YES spins each of them in V and then in the dual V*, 2 L(d_k0)
    closures, where L(d) = (|F|^d - 1)/(|F| - 1) counts the lines of F^d.
    A line of V_k0 that generates less than V is a NO at once.  When a line
    of V*_k0 generates less than V*, V is not simple but its submodules all
    miss V_k0, so the scan goes on through the lines of the later offsets.
    Either way the NO names the first line in offset order that generates a
    proper submodule.

    The budget is checked before any line is made, against the sum of
    L(d_k) over every offset that a full scan would spin; on a reducible
    module the dual pass adds at most L(d_k0) closures to that.
    """
    names = _op_names(algebra, V)
    if not V.circular:
        return Verdict.not_applicable(WINDOWED_REASON)
    total = V.total_dim()
    if total == 0:
        return Verdict.no({"kind": "zero_module", "spaces": []})

    # count the lines before making any: the budget must hold first
    ctx = V.ctx
    dims = [(k, V.dim(k)) for k in V.offsets() if V.dim(k)]
    count = sum(_unit_line_count(ctx, d) for _, d in dims)
    if count > budget:
        return Verdict.unknown(f"irreducibility needs {count} line checks, over the budget of {budget}")

    # spun on the collapse: each line from its top, each span counted once
    # per member of its run (module docstring)
    runs = Runs(V, V, [n for n in names if n != "X"])
    primal, dual = _arrows(V, runs, names)

    def spin(k: int, vec: List[Fel], in_dual: bool = False) -> Tuple[Dict[int, Echelon], int]:
        """The spin of a line of V_k, or of V*_k, at the tops, and its dimension."""
        spans = _spin(ctx, dual if in_dual else primal, [_moved(ctx, runs, k, vec, in_dual)])
        return spans, sum(s.rank * len(runs.members[e]) for e, s in spans.items())

    for k, d in dims:
        for vec in _unit_lines(ctx, d):
            spans, got = spin(k, vec)
            if got < total:
                return Verdict.no(
                    {
                        "kind": "submodule",
                        "generator": {"offset": k, "vector": [ctx.show(c) for c in vec]},
                        "spaces": _spans_to_json(V, runs, spans),
                        "dim": got,
                    }
                )
        if k == dims[0][0]:
            # every line of V_k0 generates V: Norton's criterion asks V* the same
            if all(spin(k, vec, in_dual=True)[1] == total for vec in _unit_lines(ctx, d)):
                return Verdict.yes()
    return Verdict.yes()  # every weight line generates V


# graded homomorphisms, solved on runs of invertible X links


class Runs:
    """The runs of X for a pair of modules V, W on one orbit.

    A run is a maximal chain of X links at which X is square, nonempty and
    invertible in V and in W, and no run crosses the orbit's last link; an
    offset on no such link is a run of its own.  members[e] lists a run's
    offsets in offset order, up to its representative e, the top, and rep
    maps each offset to its representative.  For a run offset k other than
    e, v[k] = (A_k, A_k^-1) with A_k = X_{e-1} ... X_k in V, and w[k] the
    same in W (w is v when W is V).  An offset that reaches e across X = 1
    links only has A_k = 1 and no entry, in v or in w on its own: with W not
    V one side may hold a transport where the other holds none.  links are
    the X links inside runs.  Given lowering operators, for W = V, a link
    must also collapse for them (module docstring).

    A graded map V -> W is kept as its dict {top: block} over the tops
    where V and W are both nonzero, in offset order; to_reps moves an
    operator's block to the tops, and lift gives the map at every offset.
    """

    __slots__ = ("members", "rep", "links", "v", "w")

    def __init__(self, V: WeightModule, W: WeightModule, lowering: Sequence[str] = ()):
        offsets = V.offsets()
        pairs = list(zip(offsets, offsets[1:]))
        sides = [V] if W is V else [V, W]
        # each side's inverse of every invertible X link, None where X = 1
        inverses: List[Dict[int, Optional[Mat]]] = [{} for _ in sides]
        for k, t in pairs:
            if all(M.dim(k) == M.dim(t) > 0 for M in sides):
                got = [_link_inverse(M.op("X", k)) for M in sides]
                if all(x is not False for x in got) and (not lowering or _collapses(V, k, t, got[0], lowering)):
                    for inverse, x in zip(inverses, got):
                        inverse[k] = x

        self.links: Set[int] = set(inverses[0])
        self.members: Dict[int, List[int]] = {}
        self.rep: Dict[int, int] = {}
        members: List[int] = []
        for k in offsets:
            members.append(k)
            if k not in self.links:  # k tops its run
                self.members[k] = members
                self.rep.update((j, k) for j in members)
                members = []

        transports = []
        for M, inverse in zip(sides, inverses):
            side: Dict[int, Tuple[Mat, Mat]] = {}
            for k, t in reversed(pairs):
                if k not in inverse:
                    continue
                x_inv = inverse[k]
                if x_inv is None:  # X_k = 1 carries A_{k+1} over unchanged
                    if t in side:
                        side[k] = side[t]
                    continue
                x = M.op("X", k)
                side[k] = (side[t][0] * x, x_inv * side[t][1]) if t in side else (x, x_inv)
            transports.append(side)
        self.v, self.w = transports[0], transports[-1]

    @staticmethod
    def to_reps(side: Dict[int, Tuple[Mat, Mat]], t: int, m: Mat, k: int) -> Mat:
        """A block from offset k to offset t of one side, v or w, moved to
        their representatives: A_t m A_k^-1."""
        if k in side:
            m = m * side[k][1]
        if t in side:
            m = side[t][0] * m
        return m

    def lift(self, blocks: Dict[int, Mat]) -> Dict[int, Mat]:
        """The per-offset blocks of the map given at the tops: B_k^-1 Z A_k
        on the run of Z."""
        out: Dict[int, Mat] = {}
        for e, z in blocks.items():
            for k in self.members[e]:
                m = z
                if k in self.w:
                    m = self.w[k][1] * m
                if k in self.v:
                    m = m * self.v[k][0]
                out[k] = m
        return out


def _link_inverse(x: Mat):
    """None when the link x is 1, its inverse when it has one, else False;
    a link c 1 is inverted by its scalar."""
    c = x.scalar_value()
    if c is None:
        inverse = x.inverse()
        return False if inverse is None else inverse
    if c == x.ctx.one:
        return None
    return Mat.scalar(x.ctx, x.rows, c.inverse()) if c else False


def _collapses(V: WeightModule, k: int, t: int, x_inverse: Optional[Mat], lowering: Sequence[str]) -> bool:
    """Is T_t X_k = c_T 1 for each lowering operator T, some c_T nonzero?
    Where X_k is 1, or c 1 with c nonzero, that is T_t = c_T 1 up to c,
    read with no product."""
    x = V.op("X", k)
    scalar = x_inverse is None or x.scalar_value() is not None
    cs = [(V.op(T, t) if scalar else V.op(T, t) * x).scalar_value() for T in lowering]
    return all(c is not None for c in cs) and any(cs)


def _graded_hom_basis(
    V: WeightModule, W: WeightModule, names: Sequence[str]
) -> Tuple[List[Dict[int, Mat]], Runs]:
    """Basis of the graded maps V -> W commuting with the named operators,
    each given by its blocks at the run tops, and the runs it was solved on.

    One unknown block per run; every operator instance off the run links is
    one equation on those blocks.  The kernel vectors of the system, lifted
    to every offset, are the canonical basis of the module docstring.
    """
    ctx = V.ctx
    runs = Runs(V, W)
    # unknowns: the entries of each run top's block, row-major, top after top
    # in offset order, as the output coordinates order them
    shapes = [(e, W.dim(e), V.dim(e)) for e in runs.members if W.dim(e) and V.dim(e)]
    sizes = [dw * dv for _, dw, dv in shapes]
    base, n = dict(zip((e for e, _, _ in shapes), itertools.accumulate([0] + sizes))), sum(sizes)
    if n == 0:
        return [], runs

    system = Echelon()
    for name in names:
        for k in V.op_sources(name):
            if name == "X" and k in runs.links:
                continue
            t = V.op_target(name, k)
            e, u = runs.rep[k], runs.rep[t]
            A = runs.to_reps(runs.v, t, V.op(name, k), k)
            B = A if W is V else runs.to_reps(runs.w, t, W.op(name, k), k)
            if u == e and B is A and A.scalar_value() is not None:
                continue  # Z c = c Z holds for every Z: only zero rows
            # Z_u A = B Z_e, entry by entry; the two sides may share a block
            za = product_terms((W.dim(t), V.dim(t)), right=A)
            bz = product_terms((W.dim(k), V.dim(k)), left=B)
            for plus, minus in zip(za, bz):
                system.insert_terms([(base[u] + j, c) for j, c in plus] + [(base[e] + j, -c) for j, c in minus])

    return cut_vectors(ctx, shapes, solution(ctx, system.rows, n)[1]), runs


def endomorphisms(V: WeightModule, algebra) -> EndBasis:
    """Basis of the graded endomorphisms commuting with the algebra's ops."""
    algebra = as_subalgebra(algebra)
    names = _op_names(algebra, V)
    if not V.circular:
        raise NotApplicable(WINDOWED_REASON)
    tops, runs = _graded_hom_basis(V, V, names)
    return EndBasis(algebra=algebra, tops=tops, runs=runs)


def verify_endomorphism(V: WeightModule, names: Sequence[str], maps: Dict[int, Mat]) -> bool:
    """Check that a per-offset family commutes with the named operators."""
    for name in names:
        for k in V.op_sources(name):
            t = V.op_target(name, k)
            A = V.op(name, k)
            left = maps[t] * A if t in maps else Mat.zeros(V.ctx, V.dim(t), V.dim(k))
            right = A * maps[k] if k in maps else Mat.zeros(V.ctx, V.dim(t), V.dim(k))
            if left != right:
                return False
    return True


# decomposition


def _invertible(phi: Dict[int, Mat]) -> bool:
    """Is the graded map, given at the tops, invertible at every nonzero
    weight space?"""
    return all(z.is_invertible() for z in phi.values())


def _fitting_projector(runs: Runs, phi: Dict[int, Mat]) -> Optional[Split]:
    """Idempotent projecting onto the stable image of phi, if it splits.

    On each weight space, phi^N for N at least its dimension has the same
    kernel and image as all later powers, and the space is their direct
    sum; both sides are submodules because phi commutes with the operators.
    On a run phi is conjugate to its representative block, so one Fitting
    power per run gives the rank there.  Returns the projector onto the
    image along the kernel, at the run representatives, and its rank, or
    None when the split is trivial: phi invertible, answered before any
    power is taken, or nilpotent.  Any other phi has a kernel at some top,
    so its rank is short of the total dimension.
    """
    if _invertible(phi):
        return None
    rank = 0
    pieces: Dict[int, Tuple[Mat, Mat]] = {}
    for e, block in phi.items():
        image, kernel = fitting_power(block).image_and_kernel()
        pieces[e] = (image, kernel)
        rank += image.cols * len(runs.members[e])
    if rank == 0:
        return None

    # with B = [image | kernel], the projector is B diag(1, 0) B^-1: the
    # image times the first image.cols rows of B^-1
    proj: Dict[int, Mat] = {}
    for e, (image, kernel) in pieces.items():
        inverse = image.hstack(kernel).inverse()
        if inverse is None:
            raise ValueError("stable image and kernel do not split the space")
        proj[e] = image * Mat(image.ctx, inverse.data[: image.cols], cols=image.rows)
    return proj, rank


def _coefficient_sweep(
    ctx: FieldCtx, dim: int, seed: int, trials: int
) -> Tuple[Iterator[List[Fel]], bool]:
    """Coefficient vectors to try, and whether the sweep is exhaustive.

    Starts with the basis directions and pairwise sums either way; over a
    small finite coefficient space continues through all lines, otherwise
    through seeded random draws.
    """

    def quick() -> Iterator[List[Fel]]:
        basis = [[ctx.one if i == j else ctx.zero for i in range(dim)] for j in range(dim)]
        for v in basis:
            yield v
        for i in range(dim):
            for j in range(i + 1, dim):
                yield [a + b for a, b in zip(basis[i], basis[j])]
                yield [a - b for a, b in zip(basis[i], basis[j])]

    if ctx.is_finite and _unit_line_count(ctx, dim) <= EXHAUSTIVE_LINES:
        return itertools.chain(quick(), _unit_lines(ctx, dim)), True

    def sampled() -> Iterator[List[Fel]]:
        rng = random.Random(seed)
        for _ in range(trials):
            yield [ctx.random_element(rng) for _ in range(dim)]

    return itertools.chain(quick(), sampled()), False


T = TypeVar("T")


def _combination(mats: Sequence[Mat], coefs: Sequence[Fel]) -> Optional[Mat]:
    """The sum of c m over the nonzero coefficients, None when there are
    none: each entry summed once over the nonzero products it has."""
    parts = [(m.data, c) for m, c in zip(mats, coefs) if c]
    if not parts:
        return None
    cs = [c for _, c in parts]
    ctx, cols = mats[0].ctx, mats[0].cols
    rows = []
    for group in zip(*(data for data, _ in parts)):
        row = []
        for xs in zip(*group):
            acc = None
            for x, c in zip(xs, cs):
                if x:
                    acc = x * c if acc is None else acc + x * c
            row.append(ctx.zero if acc is None else acc)
        rows.append(row)
    return Mat._of(ctx, rows, cols)


def _search(
    ctx: FieldCtx, basis: List[Dict[int, Mat]], seed: int, trials: int,
    test: Callable[[Dict[int, Mat]], Optional[T]], screen: Optional[Callable[[List[Fel]], bool]] = None
) -> Tuple[Optional[T], bool]:
    """Sweep combinations of a Hom basis solved on runs: the first result of
    test that is not None, and whether the sweep is exhaustive.

    The basis maps are given at the tops, and a combination is formed there
    only, a block at every top, and handed to test as such; the module
    docstring says why that is enough.  A coefficient vector that screen
    turns down is not formed at all, nor is a zero draw, which neither
    splits nor is invertible.
    """
    tops = list(basis[0])
    blocks = [[maps[s] for maps in basis] for s in tops]
    sweep, exhaustive = _coefficient_sweep(ctx, len(basis), seed, trials)
    for coefs in sweep:
        if not any(coefs) or (screen is not None and not screen(coefs)):
            continue
        got = test({s: _combination(zs, coefs) for s, zs in zip(tops, blocks)})
        if got is not None:
            return got, exhaustive
    return None, exhaustive


def _regular(ctx: FieldCtx, end: Tops) -> List[Mat]:
    """End's left regular representation: for each basis map phi_i, the
    matrix L_i whose column j is the coordinates of phi_i phi_j.

    Coordinate k of a map is its entry at basis map k's last nonzero
    coordinate (module docstring), and a product at a top is the product
    of the two blocks there, so only those entries of it are formed, each
    a sum over the nonzero entries of one row: a block c 1 costs one
    product per entry, as scaling would.
    """
    blocks = [[z.data for z in maps.values()] for maps in end]
    # (top, row, column) of each basis map's last nonzero coordinate
    where = [
        max((t, r, c) for t, z in enumerate(zs) for r, row in enumerate(z) for c, x in enumerate(row) if x)
        for zs in blocks
    ]
    table = []
    for left in blocks:
        rows = []
        for t, r, c in where:
            nonzero = [(s, a) for s, a in enumerate(left[t][r]) if a]
            rows.append([sum((a * right[t][s][c] for s, a in nonzero if right[t][s][c]), ctx.zero) for right in blocks])
        table.append(Mat._of(ctx, rows, len(blocks)))
    return table


def _splits(table: List[Mat], coefs: Sequence[Fel]) -> bool:
    """Does sum c_i phi_i split its module, its regular representation
    sum c_i L_i being neither invertible nor nilpotent?"""
    L = _combination(table, coefs)
    return not L.is_invertible() and not fitting_power(L).is_zero()


def _find_split(ctx: FieldCtx, runs: Runs, end: Tops, seed: int, trials: int) -> Tuple[Optional[Split], bool]:
    """Search the End of V or of a piece of it, a block at every run top
    where it is nonzero, for a splitting idempotent.

    Each candidate is tested on End's regular representation, when its
    n x n matrices have no more entries than those blocks (module
    docstring); only one that passes is formed at the tops, where
    _fitting_projector builds the projector, or turns it down and the sweep
    goes on.  Returns (projector-and-rank or None, decided).  decided is
    True when the sweep was exhaustive up to scalars, so None means
    indecomposable.
    """
    if len(end) <= 1:
        return None, True
    small = len(end) ** 2 <= sum(z.rows**2 for z in end[0].values())
    screen = partial(_splits, _regular(ctx, end)) if small else None
    return _search(ctx, end, seed, trials, partial(_fitting_projector, runs), screen)


def _parts(factors: Optional[Factors], end: Tops, proj: Dict[int, Mat], ones: Ones) -> List[Tuple[Factors, Tops]]:
    """The two parts of a piece of V, with rank factors B, C at the run tops
    (None for V itself), along the idempotent p of its End: for p and for
    1 - p, with rank factors b, c at each top where the part is nonzero,
    the part's factors B b, c C in V's coordinates and its End, c phi b
    over the piece's End basis (module docstring)."""
    ctx = next(iter(proj.values())).ctx
    inner: List[Factors] = [{}, {}]
    outer: List[Factors] = [{}, {}]
    for e, p in proj.items():
        for part, whole, q in zip(inner, outer, (p, Mat.identity(ctx, p.rows) - p)):
            b, c = pair = q.rank_factors()
            if b.cols:
                part[e] = pair
                whole[e] = pair if factors is None else (_times(factors[e][0], b), _times(c, factors[e][1]))
    return [(whole, _restricted_end(ctx, end, part, ones)) for part, whole in zip(inner, outer)]


def _times(a: Mat, b: Mat) -> Mat:
    """The product of two rank factors: a square one is 1 and is not multiplied."""
    return b if a.rows == a.cols else a if b.rows == b.cols else a * b


def _restricted_end(ctx: FieldCtx, end: Tops, factors: Factors, ones: Ones) -> Tops:
    """End of the part of a piece cut out by the idempotent B C at each run
    top, from the piece's End with no solve: C phi B over its basis spans
    the part's End, brought to the canonical basis (module docstring)."""
    shapes = [(e, b.cols, b.cols) for e, (b, _) in factors.items()]
    zero, width = ctx.zero, sum(r * r for _, r, _ in shapes)
    # in reversed coordinate order, whose reduced echelon basis is the canonical one
    system = Echelon()
    for phi in end:
        vec = [x for e, pair in factors.items() for row in _cut(pair, phi[e], pair, ones).data for x in row]
        system.insert_terms([(width - 1 - i, x) for i, x in enumerate(vec) if x])
    vectors = [dense(system.rows[p], width, zero)[::-1] for p in sorted(system.rows, reverse=True)]
    return cut_vectors(ctx, shapes, vectors)


def _cut(target: Tuple[Mat, Mat], m: Mat, source: Tuple[Mat, Mat], ones: Ones) -> Mat:
    """C_t m B_k, m from the space with rank factors B_k, C_k to the one
    with B_t, C_t (module docstring).  An m that is c 1 between one factor
    pair is c 1, one block per (size, c) kept in ones; a square factor is 1
    and is not multiplied, and an m that is c 1 is scaled."""
    c = m.scalar_value()
    (_, left), (right, _) = target, source
    if c is not None:
        if target is source:
            if (right.cols, c) not in ones:
                ones[right.cols, c] = Mat.scalar(m.ctx, right.cols, c)
            return ones[right.cols, c]
        m = right.scale(c)
    elif right.rows > right.cols:
        m = m * right
    return m if left.rows == left.cols else left * m


def _summand(V: WeightModule, names: Sequence[str], runs: Runs, factors: Factors, ones: Ones) -> WeightModule:
    """The summand of V whose idempotent has rank factors B, C at the run
    tops: B C lifted along the runs is factored again at each offset with a
    transport, every other offset takes its top's pair, and an operator O
    from k to t restricts to C_t O B_k (module docstring)."""
    at = {k: pair for e, pair in factors.items() for k in runs.members[e]}
    moved = {e: b * c for e, (b, c) in factors.items() if b.rows > b.cols and any(k in runs.v for k in runs.members[e])}
    if moved:
        lifted = runs.lift(moved)
        at.update((k, lifted[k].rank_factors()) for k in lifted if k in runs.v)
    labels = {k: default_labels(k, b.cols) for k, (b, _) in at.items()}
    ops: Dict[str, Dict[int, Mat]] = {name: {} for name in names}
    for name, table in ops.items():
        for k in V.op_sources(name):
            t = V.op_target(name, k)
            if k in at and t in at:
                table[k] = _cut(at[t], V.op(name, k), at[k], ones)
    return WeightModule(V.ctx, V.orbit, V.window, labels, ops)


def is_indecomposable(
    V: WeightModule, algebra, seed: int = 0, trials: int = DEFAULT_TRIALS, end: Optional[EndBasis] = None
) -> Verdict:
    """Does the module admit no splitting into two nonzero summands?

    end is End(V) over the algebra when the caller has solved it already;
    otherwise it is solved here, only when the sweep needs it.
    """
    _op_names(algebra, V)
    if not V.circular:
        return Verdict.not_applicable(WINDOWED_REASON)
    if V.total_dim() == 0:
        return Verdict.no({"kind": "zero_module"})
    if end is None:
        end = endomorphisms(V, algebra)
    found, decided = _find_split(V.ctx, end.runs, end.tops, seed, trials)
    if found is not None:
        proj, rank = found
        return Verdict.no({"kind": "idempotent", "maps": _maps_to_json(end.runs.lift(proj), {}), "rank": rank})
    if decided:
        return Verdict.yes()
    return Verdict.unknown(NO_SPLIT_FOUND)


def decompose(
    V: WeightModule, algebra, seed: int = 0, trials: int = DEFAULT_TRIALS, end: Optional[EndBasis] = None
) -> Decomposition:
    """Split a circular module into indecomposable summands.

    Splits along idempotents found in the graded endomorphism ring of the
    chosen algebra's action, then splits each part the same way, all at
    the tops of the runs End(V) was solved on: a piece is held as its
    idempotent's rank factors there with its End, restricted from its
    parent's, and only a piece that splits no further is built as a module
    (module docstring).  When the endomorphism sweep is not exhaustive and
    finds nothing, that piece is kept whole and the result is flagged
    incomplete.  end is End(V) over the algebra when the caller has solved
    it already; otherwise it is solved here, the one End solve and the one
    Runs of a decompose.
    """
    names = _op_names(algebra, V)
    if not V.circular:
        raise NotApplicable(WINDOWED_REASON)
    if V.total_dim() == 0:
        return Decomposition([], True)
    if V.ops.keys() - set(names):
        # summands are only stable under the chosen algebra, so drop the rest;
        # End over the algebra reads only its operators, so end serves the copy
        V = V.with_ops({n: V.ops[n] for n in names})
    if end is None:
        end = endomorphisms(V, algebra)
    ones: Ones = {}
    summands, complete = [], True
    # depth first, image before complement
    pieces: List[Tuple[Optional[Factors], Tops]] = [(None, end.tops)]
    while pieces:
        factors, tops = pieces.pop()
        found, decided = _find_split(V.ctx, end.runs, tops, seed, trials)
        if found is not None:
            pieces.extend(reversed(_parts(factors, tops, found[0], ones)))
            continue
        complete = complete and decided
        summands.append(V if factors is None else _summand(V, names, end.runs, factors, ones))
    return Decomposition(summands, complete, None if complete else NO_SPLIT_FOUND)


# isomorphism


def _require_same_line(V: WeightModule, W: WeightModule) -> None:
    """Both modules over one field, on one orbit, and with one window."""
    if V.ctx != W.ctx:
        raise ValueError("modules live over different fields")
    if V.orbit.base != W.orbit.base:
        raise ValueError("modules live on different weight orbits")
    if V.window != W.window:
        raise ValueError("modules must be both circular or share the same window")


def are_isomorphic(
    V: WeightModule,
    W: WeightModule,
    algebra,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> Verdict:
    """Is there a graded invertible intertwiner V -> W for the algebra?

    Both modules must live over the same field, on the same orbit, and be
    both circular or identically windowed; anything else is a usage error,
    not a NO.  The intertwining space is solved exactly; the search for an
    invertible element is exhaustive up to scalars over a small finite
    coefficient space, otherwise seeded and bounded.
    """
    names = _op_names(algebra, V, W)
    _require_same_line(V, W)

    for k in V.offsets():
        if V.dim(k) != W.dim(k):
            return Verdict.no(
                {"kind": "support_mismatch", "offset": k, "dims": [V.dim(k), W.dim(k)]}
            )
    if V.total_dim() == 0:
        return Verdict.yes({"kind": "intertwiner", "maps": []})

    homs, runs = _graded_hom_basis(V, W, names)
    if not homs:
        return Verdict.no({"kind": "no_invertible_intertwiner", "hom_dim": 0, "exhaustive": True})

    phi, exhaustive = _search(V.ctx, homs, seed, trials, lambda phi: phi if _invertible(phi) else None)
    if phi is not None:
        return Verdict.yes({"kind": "intertwiner", "maps": _maps_to_json(runs.lift(phi), {})})
    if exhaustive:
        return Verdict.no(
            {"kind": "no_invertible_intertwiner", "hom_dim": len(homs), "exhaustive": True}
        )
    return Verdict.unknown("no invertible intertwiner found within the trial budget")


# direct sums (mainly for building test cases and witnesses)


def direct_sum(V: WeightModule, W: WeightModule) -> WeightModule:
    """External direct sum of two modules on the same orbit and window."""
    _require_same_line(V, W)
    if set(V.ops) != set(W.ops):
        raise ValueError("modules carry different operator sets")
    ctx = V.ctx

    labels = {}
    for k in V.offsets():
        merged = list(V.label_list(k))
        for lab in W.label_list(k):
            while lab in merged:
                lab = lab + "'"
            merged.append(lab)
        if merged:
            labels[k] = tuple(merged)

    ops: Dict[str, Dict[int, Mat]] = {}
    for name in V.ops:
        table = {}
        for k in V.op_sources(name):
            a, b = V.op(name, k), W.op(name, k)
            rows = [row + [ctx.zero] * b.cols for row in a.data] + [[ctx.zero] * a.cols + row for row in b.data]
            table[k] = Mat(ctx, rows, cols=a.cols + b.cols)
        ops[name] = table
    return WeightModule(ctx, V.orbit, V.window, labels, ops)
