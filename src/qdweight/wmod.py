"""Weight-module data structure and the generic GWA module catalog.

A weight module is stored as per-offset weight spaces along a single orbit,
with graded matrices for the operators X (offset +1) and Y, Y1 (offset -1).
tau and sigma act on the space at offset k by the scalars (a+k, q^k b) of
that offset's weight point and are never stored as matrices.  Infinite
orbits are represented on a finite window of at most MAX_ORBIT_LENGTH
offsets; circular orbits wrap around and need no window.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

from .basering import PRODUCTS, Scalar, WeightPoint, eval_at
from .fields import Fel, FieldCtx, FieldSpec, make_field
from .linalg import Mat
from .orbits import LOWERING, MAX_ORBIT_LENGTH, Orbit, Subalgebra, breaks, compute_orbit, j_index

OP_NAMES = ("X", "Y", "Y1")
OP_STEP = {"X": 1, "Y": -1, "Y1": -1}


def check_width(lo: int, hi: int) -> None:
    """Reject a window of more offsets than any module may have."""
    width = hi - lo + 1
    if width > MAX_ORBIT_LENGTH:
        raise ValueError(f"window width {width} is over the limit of {MAX_ORBIT_LENGTH}")


def as_subalgebra(flavor) -> Subalgebra:
    if isinstance(flavor, Subalgebra):
        return flavor
    return Subalgebra(str(flavor).upper())


def op_names_for(algebra) -> Tuple[str, ...]:
    """The operators an algebra acts through: X and the flavor's lowering operator, or all three for D."""
    algebra = as_subalgebra(algebra)
    if algebra is Subalgebra.D:
        return OP_NAMES
    return ("X", LOWERING[algebra])


class WeightModule:
    """Immutable weight module on one orbit; validates shapes on construction."""

    __slots__ = ("ctx", "orbit", "window", "labels", "ops", "edge_flags")

    def __init__(
        self,
        ctx: FieldCtx,
        orbit: Orbit,
        window: Optional[Tuple[int, int]],
        labels: Dict[int, Sequence[str]],
        ops: Dict[str, Dict[int, Mat]],
        edge_flags: Optional[Dict[str, bool]] = None,
    ):
        self.ctx = ctx
        self.orbit = orbit
        if orbit.circular:
            self.window = None
        else:
            if window is None:
                raise ValueError("a module on an infinite orbit needs a window")
            lo, hi = int(window[0]), int(window[1])
            if lo > hi:
                raise ValueError("empty window")
            check_width(lo, hi)
            self.window = (lo, hi)
        offset_set = set(self.offsets())
        clean: Dict[int, Tuple[str, ...]] = {}
        for k, labs in labels.items():
            if k not in offset_set:
                raise ValueError(f"offset {k} lies outside the module's offset range")
            labs = tuple(str(s) for s in labs)
            if labs:
                clean[k] = labs
        self.labels = clean
        if edge_flags is None:
            edge_flags = {"low": self.window is not None, "high": self.window is not None}
        if self.window is None and (edge_flags.get("low") or edge_flags.get("high")):
            raise ValueError("circular modules have no truncated edges")
        self.edge_flags = {"low": bool(edge_flags.get("low")), "high": bool(edge_flags.get("high"))}
        vops: Dict[str, Dict[int, Mat]] = {}
        for name, mats in ops.items():
            if name not in OP_NAMES:
                raise ValueError(f"unknown operator name {name!r}")
            got = dict(mats)
            table: Dict[int, Mat] = {}
            for k in self.op_sources(name):
                tgt = self.op_target(name, k)
                want = (self.dim(tgt), self.dim(k))
                m = got.pop(k, None)
                if m is None:
                    if 0 in want:
                        m = Mat.zeros(ctx, *want)
                    else:
                        raise ValueError(f"operator {name} is missing its matrix at offset {k}")
                if (m.rows, m.cols) != want:
                    raise ValueError(
                        f"operator {name} at offset {k} has shape {m.rows}x{m.cols},"
                        f" expected {want[0]}x{want[1]}"
                    )
                table[k] = m
            if got:
                raise ValueError(f"operator {name} has matrices at offsets {sorted(got)} outside its sources")
            vops[name] = table
        self.ops = vops

    # geometry

    @property
    def circular(self) -> bool:
        return self.window is None

    def offsets(self) -> List[int]:
        if self.circular:
            return list(range(self.orbit.length))
        lo, hi = self.window
        return list(range(lo, hi + 1))

    def dim(self, k: int) -> int:
        return len(self.labels.get(k, ()))

    def label_list(self, k: int) -> Tuple[str, ...]:
        if k in self.labels:
            return self.labels[k]
        return tuple()

    def total_dim(self) -> int:
        return sum(len(v) for v in self.labels.values())

    def point(self, k: int) -> WeightPoint:
        return self.orbit.point(k)

    def tau_scalar(self, k: int) -> Fel:
        return self.point(k).a

    def sigma_scalar(self, k: int) -> Fel:
        return self.point(k).b

    def scalar(self, f: Scalar, k: int) -> Fel:
        """An element of R, such as a PRODUCTS scalar, at offset k's point."""
        return f(self.ctx, self.tau_scalar(k), self.sigma_scalar(k))

    # operators

    def has_op(self, name: str) -> bool:
        return name in self.ops

    def op(self, name: str, k: int) -> Mat:
        return self.ops[name][k]

    def op_sources(self, name: str) -> List[int]:
        """Offsets where the named operator's matrix is stored."""
        if self.circular:
            return list(range(self.orbit.length))
        lo, hi = self.window
        if OP_STEP[name] == 1:
            return list(range(lo, hi))
        return list(range(lo + 1, hi + 1))

    def op_target(self, name: str, k: int) -> Optional[int]:
        t = k + OP_STEP[name]
        if self.circular:
            return t % self.orbit.length
        lo, hi = self.window
        if lo <= t <= hi:
            return t
        return None

    def with_ops(self, ops: Dict[str, Dict[int, Mat]]) -> "WeightModule":
        return WeightModule(self.ctx, self.orbit, self.window, self.labels, ops, self.edge_flags)

    # comparison and serialization

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightModule)
            and self.ctx == other.ctx
            and self.orbit.base == other.orbit.base
            and self.window == other.window
            and self.labels == other.labels
            and self.edge_flags == other.edge_flags
            and self.ops == other.ops
        )

    def __repr__(self) -> str:
        shape = ",".join(str(self.dim(k)) for k in self.offsets())
        where = "circular" if self.circular else f"window {self.window}"
        return f"WeightModule({where}; dims {shape}; ops {sorted(self.ops)})"

    def to_json(self) -> dict:
        show = self.ctx.show
        out = {
            "field": self.ctx.spec.to_json(),
            "q": show(self.ctx.q),
            "base": [show(self.orbit.base.a), show(self.orbit.base.b)],
            "kind": "CIRCULAR" if self.circular else "INFINITE",
            "window": list(self.window) if self.window else None,
            "spaces": [
                {"offset": k, "dim": self.dim(k), "labels": list(self.label_list(k))}
                for k in self.offsets()
                if self.dim(k)
            ],
            "ops": {
                name: [
                    {"offset": k, "matrix": table[k].to_json()}
                    for k in sorted(table)
                    if table[k].rows and table[k].cols
                ]
                for name, table in sorted(self.ops.items())
            },
            "edge_flags": dict(self.edge_flags),
        }
        return out


def default_labels(k: int, dim: int) -> Tuple[str, ...]:
    """Labels of a weight space given none: v{k} for a line, else v{k}_1, ..., v{k}_dim."""
    return (f"v{k}",) if dim == 1 else tuple(f"v{k}_{i + 1}" for i in range(dim))


def _json_int(value, what: str) -> int:
    """A JSON integer; a bool, float or string is refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_objects(value, what: str, keys: Sequence[str]) -> list:
    """A JSON list of objects, each carrying every key in keys."""
    if not (isinstance(value, list) and all(isinstance(entry, dict) for entry in value)):
        raise ValueError(f"{what} must be a list of objects")
    for entry in value:
        for key in keys:
            if key not in entry:
                raise ValueError(f"an entry of {what} has no {key}")
    return value


def make_module(raw: dict) -> WeightModule:
    """Validate a raw JSON-style description and build the module."""
    if not isinstance(raw, dict):
        raise ValueError("module description must be a JSON object")
    for key in ("field", "ops", "edge_flags"):
        if raw.get(key) is not None and not isinstance(raw[key], dict):
            raise ValueError(f"{key} must be a JSON object")
    for key in ("base", "window"):
        if raw.get(key) is not None and not (isinstance(raw[key], (list, tuple)) and len(raw[key]) == 2):
            raise ValueError(f"{key} must be a list of two entries")
    ctx = make_field(FieldSpec.from_json(raw["field"]))
    if "q" in raw and ctx.parse(raw["q"]) != ctx.q:
        raise ValueError("q in the description disagrees with the field spec")
    base_raw = raw["base"]
    base = WeightPoint(ctx.parse(base_raw[0]), ctx.parse(base_raw[1]))
    orbit = compute_orbit(base, ctx)
    kind = raw.get("kind")
    if kind is not None:
        actual = "CIRCULAR" if orbit.circular else "INFINITE"
        if kind != actual:
            raise ValueError(f"declared kind {kind} but the orbit is {actual}")
    window = raw.get("window")
    if orbit.circular:
        if window is not None:
            raise ValueError("circular orbits take no window")
    else:
        if window is None:
            raise ValueError("a module on an infinite orbit needs a window")
        window = (_json_int(window[0], "a window end"), _json_int(window[1], "a window end"))
    labels: Dict[int, Sequence[str]] = {}
    for space in _json_objects(raw.get("spaces", []), "spaces", ("offset", "dim")):
        k = _json_int(space["offset"], "an offset")
        dim = _json_int(space["dim"], "a dim")
        labs = space.get("labels")
        if labs is None:
            labs = default_labels(k, dim)
        elif not (isinstance(labs, list) and all(isinstance(lab, str) for lab in labs)):
            raise ValueError(f"offset {k}: labels must be a list of strings")
        if len(labs) != dim:
            raise ValueError(f"offset {k}: {len(labs)} labels for dimension {dim}")
        if k in labels:
            raise ValueError(f"offset {k} listed twice")
        labels[k] = labs
    shell = WeightModule(ctx, orbit, window, labels, {})
    ops: Dict[str, Dict[int, Mat]] = {}
    for name, entries in (raw.get("ops") or {}).items():
        table: Dict[int, Mat] = {}
        for entry in _json_objects(entries, f"ops.{name}", ("offset", "matrix")):
            k = _json_int(entry["offset"], "an offset")
            if k not in shell.op_sources(name):
                raise ValueError(f"operator {name} has a matrix at offset {k} outside its sources")
            tgt = shell.op_target(name, k)
            table[k] = Mat.from_json(ctx, entry["matrix"], shell.dim(tgt), shell.dim(k))
        ops[name] = table
    return WeightModule(ctx, orbit, window, labels, ops, raw.get("edge_flags"))


def junction_module(ctx: FieldCtx, orbit: Orbit, window, labels, j: int, x: Mat, y: Mat, y1: Mat) -> WeightModule:
    """The D-module with X_j = x, Y and Y1 leaving offset j+1 equal to y and
    y1 (on a circular orbit j = r-1 gives j+1 = 0), and X = 1 on every other
    link k.  There T X = tx(k) and X T = xt(k+1) force T leaving k+1 to be
    that scalar times 1, for T in Y, Y1; the two scalars agree because alpha
    shifts tau by 1 and sigma by q.  Transport along X brings any module
    with X invertible off one link to this form.  At a double break (tau = 0,
    q sigma = 1) both junction scalars vanish, so the junction relations are
    those of Lambda = F<x, y, y1>/(xy, yx, xy1, y1x).  Relations are not
    checked; a link joining spaces of different dimensions fails the shape
    check.
    """
    shell = WeightModule(ctx, orbit, window, labels, {})
    ident = {d: Mat.identity(ctx, d) for d in {shell.dim(k) for k in shell.offsets()}}
    ops = {"X": {k: x if k == j else ident[shell.dim(k)] for k in shell.op_sources("X")}}
    top = shell.op_target("X", j)
    for T, t in (("Y", y), ("Y1", y1)):
        xt = PRODUCTS[T].xt
        ops[T] = {
            k: t if k == top else ident[shell.dim(k)].scale(shell.scalar(xt, k)) for k in shell.op_sources(T)
        }
    return shell.with_ops(ops)


def restrict(V: WeightModule, flavor) -> WeightModule:
    """Forget the operator outside the flavor: keep X, Y1 for AQ or X, Y for A1."""
    flavor = as_subalgebra(flavor)
    if flavor is Subalgebra.D:
        raise ValueError("restriction targets a GWA flavor, AQ or A1")
    keep = set(op_names_for(flavor))
    ops = {name: table for name, table in V.ops.items() if name in keep}
    return V.with_ops(ops)


# the generic GWA catalog


@dataclass(frozen=True)
class GwaKind:
    """One of the five generic GWA module shapes.

    SIMPLE_NO_BREAK: infinite orbit, no breaks in the window.
    WITH_BREAKS(J, Jp): infinite orbit with breaks; J an interval of the
        augmented break set, Jp the glued breaks.
    CIRC_NO_BREAK(f): circular orbit without breaks; wrap factor f.
    FAMILY1(j, w): circular orbit with breaks; residue j, word w over {x,y}.
    FAMILY2(w, f): circular orbit with breaks; word length divisible by the
        break count; wrap factor f.
    """

    name: str
    J: Tuple[int, ...] = ()
    Jp: Tuple[int, ...] = ()
    f: Optional[str] = None
    j: int = 0
    w: str = ""


def simple_no_break() -> GwaKind:
    return GwaKind("SIMPLE_NO_BREAK")


def with_breaks(J: Sequence[int], Jp: Sequence[int] = ()) -> GwaKind:
    return GwaKind("WITH_BREAKS", J=tuple(sorted(int(k) for k in J)), Jp=tuple(sorted(int(k) for k in Jp)))


def circ_no_break(f) -> GwaKind:
    return GwaKind("CIRC_NO_BREAK", f=str(f))


def family1(j: int, w: str) -> GwaKind:
    return GwaKind("FAMILY1", j=int(j), w=str(w))


def family2(w: str, f) -> GwaKind:
    return GwaKind("FAMILY2", f=str(f), w=str(w))


def _basis_mat(ctx, row_keys, col_keys, entries) -> Mat:
    ridx = {k: i for i, k in enumerate(row_keys)}
    cidx = {k: i for i, k in enumerate(col_keys)}
    data = [[ctx.zero] * len(col_keys) for _ in row_keys]
    for (rk, ck), v in entries.items():
        data[ridx[rk]][cidx[ck]] = v
    return Mat(ctx, data, cols=len(col_keys))


def _word_letters(w: str) -> str:
    if any(c not in "xy" for c in w):
        raise ValueError(f"word {w!r} must use only the letters x and y")
    return w


def construct_gwa(flavor, kind: GwaKind, base: WeightPoint, window, ctx: FieldCtx) -> WeightModule:
    """Build a generic GWA module: X plus T, where T is Y1 (AQ) or Y (A1)."""
    flavor = as_subalgebra(flavor)
    if flavor is Subalgebra.D:
        raise ValueError("GWA modules are built per flavor, AQ or A1")
    T_name = LOWERING[flavor]
    t = PRODUCTS[T_name].tx
    orbit = compute_orbit(base, ctx)

    def tval(k: int) -> Fel:
        return eval_at(t, orbit.point(k))

    if kind.name == "SIMPLE_NO_BREAK":
        if orbit.circular:
            raise ValueError("SIMPLE_NO_BREAK needs an infinite orbit; use CIRC_NO_BREAK")
        if window is None:
            raise ValueError("SIMPLE_NO_BREAK needs a window")
        lo, hi = int(window[0]), int(window[1])
        check_width(lo, hi)
        bks = breaks(orbit, flavor, (lo, hi))
        if bks:
            raise ValueError(f"window contains a break at offset {bks[0][0]}")
        labels = {k: (f"v{k}",) for k in range(lo, hi + 1)}
        X = {k: Mat(ctx, [[tval(k)]]) for k in range(lo, hi)}
        T = {k: Mat(ctx, [[ctx.one]]) for k in range(lo + 1, hi + 1)}
        return WeightModule(ctx, orbit, (lo, hi), labels, {"X": X, T_name: T})

    if kind.name == "WITH_BREAKS":
        if orbit.circular:
            raise ValueError("WITH_BREAKS needs an infinite orbit")
        if window is None:
            raise ValueError("WITH_BREAKS needs a window")
        lo, hi = int(window[0]), int(window[1])
        check_width(lo, hi)
        B = [k for k, _ in breaks(orbit, flavor, (lo, hi))]
        if not B:
            raise ValueError("WITH_BREAKS needs at least one break in the window")
        Bp = B + [max(B) + 1]
        J = list(kind.J)
        Jp = set(kind.Jp)
        if any(k not in Bp for k in J):
            raise ValueError(f"J must be a subset of the augmented break set {Bp}")
        if J:
            positions = [Bp.index(k) for k in J]
            if positions != list(range(positions[0], positions[0] + len(J))):
                raise ValueError("J must be an interval of consecutive augmented breaks")
        if not Jp <= set(J) - ({max(J)} if J else set()):
            raise ValueError("Jp must lie inside J and avoid its maximum")
        if J:
            below = [b for b in B if b < min(J)]
            n0 = max(below) if below else -inf
            n1 = max(J) if max(J) in B else inf
        else:
            n0 = max(B)
            n1 = inf
        support = [k for k in range(lo, hi + 1) if n0 < k <= n1]
        labels = {k: (f"v{k}",) for k in support}
        sup = set(support)
        B_set = set(B)
        X = {}
        for k in range(lo, hi):
            if k in sup and k + 1 in sup:
                if k not in B_set:
                    coeff = tval(k)
                elif k in Jp:
                    coeff = ctx.one
                else:
                    coeff = ctx.zero
                X[k] = Mat(ctx, [[coeff]])
        T = {}
        for k in range(lo + 1, hi + 1):
            if k in sup and k - 1 in sup:
                coeff = ctx.zero if (k - 1 in Jp or k - 1 == n0) else ctx.one
                T[k] = Mat(ctx, [[coeff]])
        return WeightModule(ctx, orbit, (lo, hi), labels, {"X": X, T_name: T})

    if kind.name == "CIRC_NO_BREAK":
        if not orbit.circular:
            raise ValueError("CIRC_NO_BREAK needs a circular orbit")
        if breaks(orbit, flavor):
            raise ValueError("CIRC_NO_BREAK needs a break-free orbit")
        f = ctx.parse(kind.f)
        if not f:
            raise ValueError("wrap factor f must be nonzero")
        r = orbit.length
        labels = {k: (f"v{k}",) for k in range(r)}
        X = {k: Mat(ctx, [[tval(k)]]) for k in range(r - 1)}
        X[r - 1] = Mat(ctx, [[f * tval(r - 1)]])
        T = {k: Mat(ctx, [[ctx.one]]) for k in range(1, r)}
        T[0] = Mat(ctx, [[f.inverse()]])
        return WeightModule(ctx, orbit, None, labels, {"X": X, T_name: T})

    if kind.name in ("FAMILY1", "FAMILY2"):
        if not orbit.circular:
            raise ValueError(f"{kind.name} needs a circular orbit")
        bks = breaks(orbit, flavor)
        if not bks:
            raise ValueError(f"{kind.name} needs an orbit with breaks")
        m = len(bks)
        r = orbit.length
        w = _word_letters(kind.w)
        n = len(w)
        break_set = {k for k, _ in bks}
        j_of = [j_index(o, bks) for o in range(r)]

        if kind.name == "FAMILY1":
            j = kind.j % m
            ks_at = [[k for k in range(n + 1) if (k + j) % m == j_of[o]] for o in range(r)]
        else:
            if n == 0 or n % m:
                raise ValueError(f"FAMILY2 needs a word length that is a positive multiple of {m}")
            f = ctx.parse(kind.f)
            if not f:
                raise ValueError("wrap factor f must be nonzero")
            ks_at = [[k for k in range(1, n + 1) if k % m == j_of[o] % m] for o in range(r)]

        labels = {o: tuple(f"e{k}" for k in ks_at[o]) for o in range(r)}
        X = {}
        T = {}
        for o in range(r):
            nxt, prv = (o + 1) % r, (o - 1) % r
            xe = {}
            for k in ks_at[o]:
                if o not in break_set:
                    xe[(k, k)] = tval(o)
                elif kind.name == "FAMILY1":
                    if k < n and w[k] == "x":
                        xe[(k + 1, k)] = ctx.one
                else:
                    if k != n and w[k] == "x":
                        xe[(k + 1, k)] = ctx.one
                    elif k == n and w[0] == "x":
                        xe[(1, k)] = f
            X[o] = _basis_mat(ctx, ks_at[nxt], ks_at[o], xe)
            te = {}
            for k in ks_at[o]:
                if prv not in break_set:
                    te[(k, k)] = ctx.one
                elif kind.name == "FAMILY1":
                    if k >= 1 and w[k - 1] == "y":
                        te[(k - 1, k)] = ctx.one
                else:
                    if k != 1 and w[k - 1] == "y":
                        te[(k - 1, k)] = ctx.one
                    elif k == 1 and w[0] == "y":
                        te[(n, k)] = f
            T[o] = _basis_mat(ctx, ks_at[prv], ks_at[o], te)
        return WeightModule(ctx, orbit, None, labels, {"X": X, T_name: T})

    raise ValueError(f"unknown GWA kind {kind.name!r}")
