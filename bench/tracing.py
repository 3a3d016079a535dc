"""Per-layer tracing of qdweight from outside the package.

``Tracer.install`` replaces public functions of the ten ``qdweight`` modules
with wrappers that record a span per call (name, start, end, parent span,
op id) or only count calls.  ``cli``, ``extend`` and ``analyze`` import
their callees by name, so every module attribute that holds the original
object is replaced, not just the defining one.  ``uninstall`` puts every
original back and checks it.  Spans stay in memory until the run ends.

A layer's self time is the summed duration of its spans minus the part of
each span that its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# (layer, module, attribute): calls that get a span
SPANS = (
    ("cli", "qdweight.cli", "main"),
    ("cli", "qdweight.cli", "load_module"),
    ("cli", "qdweight.cli", "canonical_json"),
    ("families", "qdweight.families", "construct_family"),
    ("wmod", "qdweight.wmod", "make_module"),
    ("wmod", "qdweight.wmod", "restrict"),
    ("wmod", "qdweight.wmod", "construct_gwa"),
    ("wmod", "qdweight.wmod", "WeightModule.to_json"),
    ("orbits", "qdweight.orbits", "compute_orbit"),
    ("verify", "qdweight.verify", "check_relations"),
    ("verify", "qdweight.verify", "polynomial_realization"),
    ("analyze", "qdweight.analyze", "weight_dims"),
    ("analyze", "qdweight.analyze", "equidimension_check"),
    ("analyze", "qdweight.analyze", "is_irreducible"),
    ("analyze", "qdweight.analyze", "endomorphisms"),
    ("analyze", "qdweight.analyze", "verify_endomorphism"),
    ("analyze", "qdweight.analyze", "is_indecomposable"),
    ("analyze", "qdweight.analyze", "decompose"),
    ("analyze", "qdweight.analyze", "are_isomorphic"),
    ("analyze", "qdweight.analyze", "direct_sum"),
    ("extend", "qdweight.extend", "extend_to_D"),
    ("linalg", "qdweight.linalg", "Mat.rref"),
    ("linalg", "qdweight.linalg", "Mat.__mul__"),
    ("linalg", "qdweight.linalg", "Mat.pow"),
)

# (counter, module, attribute): calls that are only counted; too small to time
COUNTS = (
    ("basering.calls", "qdweight.basering", "eval_at"),
    ("basering.calls", "qdweight.basering", "alpha_point"),
    ("fields.ops", "qdweight.fields", "FieldCtx.add"),
    ("fields.ops", "qdweight.fields", "FieldCtx.neg"),
    ("fields.ops", "qdweight.fields", "FieldCtx.mul"),
    ("fields.ops", "qdweight.fields", "FieldCtx.inv"),
)

LAYERS = ("cli", "families", "wmod", "orbits", "basering", "verify", "analyze", "extend", "linalg", "fields")

# the per-layer metrics one traced pass reports, in report order
METRICS = (
    "cli.calls", "cli.self_s",
    "families.calls", "families.self_s",
    "wmod.calls", "wmod.self_s",
    "orbits.calls", "orbits.self_s",
    "basering.calls",
    "verify.calls", "verify.self_s", "verify.instances",
    "analyze.calls", "analyze.self_s", "analyze.end_dim", "analyze.fitting_calls",
    "extend.calls", "extend.self_s", "extend.solves_per_call",
    "linalg.rref_calls", "linalg.rref_s", "linalg.rref_cells", "linalg.max_cols",
    "linalg.mul_calls", "linalg.mul_s",
    "fields.ops",
)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.opid = array("l")
        self.stack: List[int] = []
        self.op = -1  # id of the op running now; -1 during set-up
        self.counts: Dict[str, int] = {}
        self.verify_instances = 0
        self.end_dim = 0
        self.rref_cells = 0
        self.max_cols = 0
        self.extend_depth = 0
        self.solves_in_extend = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, layer: str, label: str, fn: Callable, pre=None, post=None) -> Callable:
        nid = len(self.names)
        self.names.append(label)
        self.layer_of.append(layer)
        start, end, parent, name, opid, stack = self.start, self.end, self.parent, self.name, self.opid, self.stack
        perf = time.perf_counter
        tr = self

        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            opid.append(tr.op)
            end.append(0.0)
            start.append(0.0)
            stack.append(i)
            if pre is not None:
                pre(args)
            start[i] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # hooks for the counts measured at a span boundary

    def _add_instances(self, result) -> None:
        report = result[1] if isinstance(result, tuple) else result
        self.verify_instances += report.checked

    def _add_end_dim(self, result) -> None:
        self.end_dim += result.dim

    def _rref_shape(self, args) -> None:
        m = args[0]
        self.rref_cells += m.rows * m.cols
        self.max_cols = max(self.max_cols, m.cols)

    def _extend_span(self, fn: Callable) -> Callable:
        tr = self

        def inner(*args, **kwargs):
            tr.extend_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tr.extend_depth -= 1

        return inner

    def _solve_counter(self, fn: Callable) -> Callable:
        tr = self

        def wrapper(*args, **kwargs):
            if tr.extend_depth:
                tr.solves_in_extend += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # patching

    def _replace_everywhere(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Swap module.attr (or module.Class.attr) and every alias of it."""
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._set(cls, meth, make(orig), orig)
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "qdweight" or name.startswith("qdweight.")):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    self._set(other, key, new, orig)

    def _set(self, owner, key: str, new, orig) -> None:
        self._patches.append((owner, key, orig))
        setattr(owner, key, new)

    def install(self) -> None:
        hooks = {
            "check_relations": (None, self._add_instances),
            "polynomial_realization": (None, self._add_instances),
            "endomorphisms": (None, self._add_end_dim),
            "Mat.rref": (self._rref_shape, None),
        }
        for key, module, attr in COUNTS:
            self._replace_everywhere(module, attr, lambda fn, key=key: self._counter(key, fn))
        self._replace_everywhere("qdweight.linalg", "Mat.solve", self._solve_counter)
        # fitting_power is counted where analyze looks it up, and only there
        analyze = sys.modules["qdweight.analyze"]
        orig = analyze.fitting_power
        self._set(analyze, "fitting_power", self._counter("analyze.fitting_calls", orig), orig)
        for layer, module, attr in SPANS:
            pre, post = hooks.get(attr, (None, None))
            label = f"{layer}.{attr}"

            def make(fn, layer=layer, label=label, pre=pre, post=post, attr=attr):
                inner = self._extend_span(fn) if attr == "extend_to_D" else fn
                return self._span(layer, label, inner, pre, post)

            self._replace_everywhere(module, attr, make)

    def uninstall(self) -> None:
        """Put every original back, newest patch first, and check them all."""
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        for owner, key, orig in self._patches:
            now = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            if now is not orig:
                raise RuntimeError(f"{owner!r}.{key} was not restored")
        self._patches.clear()

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> List[float]:
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def root_time(self, op_only: bool = True) -> float:
        """Summed duration of the outermost spans (those of ops only)."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0 and (self.opid[i] >= 0 or not op_only)
        )

    def metrics(self) -> Dict[str, float]:
        selfs = self.self_times()
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        by_label: Dict[str, List[float]] = {}
        for i, s in enumerate(selfs):
            nid = self.name[i]
            layer = self.layer_of[nid]
            calls[layer] += 1
            self_s[layer] += s
            by_label.setdefault(self.names[nid], []).append(s)

        def label_stats(*labels: str) -> Tuple[int, float]:
            got = [s for lab in labels for s in by_label.get(lab, [])]
            return len(got), sum(got)

        rref_calls, rref_s = label_stats("linalg.Mat.rref")
        mul_calls, mul_s = label_stats("linalg.Mat.__mul__", "linalg.Mat.pow")
        extend_calls = calls["extend"]
        out = {
            "cli.calls": calls["cli"], "cli.self_s": self_s["cli"],
            "families.calls": calls["families"], "families.self_s": self_s["families"],
            "wmod.calls": calls["wmod"], "wmod.self_s": self_s["wmod"],
            "orbits.calls": calls["orbits"], "orbits.self_s": self_s["orbits"],
            "basering.calls": self.counts["basering.calls"],
            "verify.calls": calls["verify"], "verify.self_s": self_s["verify"],
            "verify.instances": self.verify_instances,
            "analyze.calls": calls["analyze"], "analyze.self_s": self_s["analyze"],
            "analyze.end_dim": self.end_dim, "analyze.fitting_calls": self.counts["analyze.fitting_calls"],
            "extend.calls": extend_calls, "extend.self_s": self_s["extend"],
            "extend.solves_per_call": self.solves_in_extend / extend_calls if extend_calls else 0.0,
            "linalg.rref_calls": rref_calls, "linalg.rref_s": rref_s,
            "linalg.rref_cells": self.rref_cells, "linalg.max_cols": self.max_cols,
            "linalg.mul_calls": mul_calls, "linalg.mul_s": mul_s,
            "fields.ops": self.counts["fields.ops"],
        }
        assert tuple(out) == METRICS
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t{self.opid[i]}\n"
                )
