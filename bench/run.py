#!/usr/bin/env python3
"""Benchmark of the qdweight command line, stdlib only.

Run from the root of a source checkout:

    python3 bench/run.py --workload grid|structure|extension|all \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client in one process and one
thread: the next ``qdweight`` subcommand starts only after the previous one
returned, as at a terminal.  Ops call ``qdweight.cli.main(argv)`` in-process
with stdout captured; the package is imported from ``./src``.  Set-up
imports the package and writes every input file; it is repeated
``SETUP_REPEATS`` times and its median reported.  A pass runs every op once
in a seeded random order; passes repeat until the next one would overrun
``--seconds``, but at least ``MIN_PASSES`` run.  Every answer is checked
against ``expected.TABLE`` outside the timed region.

The host's speed drifts, so untimed runs of ``reference.reference`` are
interleaved with the ops (one before a pass, one after, and one before any
op that starts ``REF_EVERY_S`` or more after the last), and each op's and
each set-up's time is scaled by ``reference.NOMINAL_S`` over the mean of the
two reference times around it.  The end-to-end times are these scaled
times; the raw ones are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then set-up and one pass under ``tracing.Tracer``, then the
kernel probes, and prints the per-layer metrics.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  ``--workload all``
runs the three workloads in turn, each in its own process, and prints a
table of all seven end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expected  # noqa: E402
import probes  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3
REF_EVERY_S = 0.3
OP_CAP_S = 60.0
WORK_DIR = ".bench_work"
TRACE_DIR = ".bench_out"

# end-to-end metrics, printed for every workload; the ratios are zero at
# most commits, so the JSON carries them with the per-layer metrics
E2E = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"),
    ("undecided_ratio", "ratio"),
)
E2E_JSON = ("wall_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb")


class OpTimeout(Exception):
    pass


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def purge_qdweight() -> None:
    for name in [n for n in sys.modules if n == "qdweight" or n.startswith("qdweight.")]:
        del sys.modules[name]


def import_qdweight(src: str):
    purge_qdweight()
    cli = importlib.import_module("qdweight.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        die(f"imported qdweight from {cli.__file__}, not from {src}")
    return cli


def setup(workload: str, seed: int, src: str, base: str,
          gauge: reference.Gauge) -> Tuple[List[workloads.Op], List[float], List[float]]:
    """Import the package and write every fixture, SETUP_REPEATS times.

    Returns the ops, the raw set-up times and the scaled ones.
    """
    raw, scaled = [], []
    ops: List[workloads.Op] = []
    before = gauge.mark()
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_qdweight(src)
        ops = workloads.build(workload, os.path.join(base, f"setup{i}"), seed)
        raw.append(time.perf_counter() - t0)
        after = gauge.mark()
        scaled.append(raw[-1] * gauge.scale(before, after))
        before = after
    return ops, raw, scaled


def preflight(ops: List[workloads.Op], seed: int) -> None:
    """Every op has an answer entry; two seeds order the same ops differently."""
    ids = [op.id for op in ops]
    if len(set(ids)) != len(ids):
        die("duplicate op ids")
    missing = [i for i in ids if expected.entry_for(i) is None]
    if missing:
        die(f"ops without an expected-answer entry: {missing[:3]}")
    one = [op.id for op in workloads.order(ops, seed)]
    two = [op.id for op in workloads.order(ops, seed + 1)]
    if sorted(one) != sorted(ids) or sorted(two) != sorted(ids) or one == two:
        die("two seeds must give the same ops in a different order")


@contextlib.contextmanager
def op_cap(seconds: float):
    def alarm(signum, frame):
        raise OpTimeout(f"over the {seconds:g} s cap")

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_pass(ops: List[workloads.Op], tracer=None, gauge=None) -> Tuple[float, list, List[float]]:
    """One closed-loop pass.

    Returns its wall time, (op, code, out, s, error) per op, and with a
    gauge each op's scale (else an empty list).  With a gauge the wall time
    is the sum of the op times, reference runs excluded.
    """
    results = []
    marks = []
    if gauge is not None:
        gauge.mark()
        since = 0.0
    t_pass = time.perf_counter()
    for n, op in enumerate(ops):
        if tracer is not None:
            tracer.op = n
        if gauge is not None:
            if since >= REF_EVERY_S:
                gauge.mark()
                since = 0.0
            marks.append(gauge.last())
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main = sys.modules["qdweight.cli"].main
            t0 = time.perf_counter()
            try:
                with op_cap(OP_CAP_S):
                    code = main(list(op.argv))
            except Exception as exc:  # an op that raises is a failed op; keep going
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if error is None and code == 2:
            error = err.getvalue().strip()
        results.append((op, code, out.getvalue(), dt, error))
        if gauge is not None:
            since += dt
    if gauge is None:
        return time.perf_counter() - t_pass, results, []
    gauge.mark()
    # the next mark after an op's own is the one that closes its bracket
    scales = [gauge.scale(m, m + 1) for m in marks]
    return sum(r[3] for r in results), results, scales


class Checker:
    """Checks each op's answer once per distinct output."""

    def __init__(self) -> None:
        self.seen: Dict[tuple, Tuple[str, dict]] = {}
        self.failed = 0
        self.undecided = 0
        self.attempted = 0
        self.problems: List[str] = []

    def check_pass(self, results: list) -> None:
        facts: Dict[str, dict] = {}
        for op, code, out, _, error in results:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.problems.append(f"{op.id}: {error}")
                continue
            key = (op.id, code, hashlib.sha256(out.encode()).hexdigest())
            if key not in self.seen:
                try:
                    self.seen[key] = expected.check(op, code, out)
                except expected.Mismatch as exc:
                    self.failed += 1
                    self.problems.append(f"{op.id}: {exc}")
                    continue
            status, facts[op.id] = self.seen[key]
            if status == expected.UNDECIDED:
                self.undecided += 1
        for problem in expected.cross_check(facts):
            self.failed += 1
            self.problems.append(problem)


def latency_metrics(passes: List[list], scales: List[List[float]]) -> Tuple[float, float, int, int]:
    """Median and tail over ops of each op's median scaled latency across passes.

    The tail is taken at the highest whole percentile that leaves at least
    ten ops beyond it; the op count is fixed per workload, so the
    percentile is too.
    """
    per_op: Dict[str, List[float]] = {}
    for results, pass_scales in zip(passes, scales):
        for (op, _, _, dt, _), k in zip(results, pass_scales):
            per_op.setdefault(op.id, []).append(dt * k)
    xs = sorted(statistics.median(v) for v in per_op.values())
    n = len(xs)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return statistics.median(xs), xs[rank - 1], pct, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def run_untraced(args, ops, gauge: reference.Gauge, setup_raw: List[float], setup_scaled: List[float]) -> None:
    checker = Checker()
    raw_walls, walls, passes, scales = [], [], [], []
    started = time.perf_counter()
    while True:
        order = workloads.order(ops, args.seed + len(passes))
        t_pass = time.perf_counter()
        wall, results, pass_scales = run_pass(order, gauge=gauge)
        t_pass = time.perf_counter() - t_pass
        raw_walls.append(wall)
        walls.append(sum(r[3] * k for r, k in zip(results, pass_scales)))
        passes.append(results)
        scales.append(pass_scales)
        checker.check_pass(results)
        if len(walls) >= MIN_PASSES and time.perf_counter() - started + t_pass > args.seconds:
            break
    p50, tail_s, pct, nops = latency_metrics(passes, scales)
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb(),
        "failed_ratio": checker.failed / checker.attempted,
        "undecided_ratio": checker.undecided / checker.attempted,
    }
    print(f"workload {args.workload}: closed loop, 1 client, seed {args.seed}, "
          f"{len(walls)} passes of {len(ops)} ops; times scaled to a {reference.NOMINAL_S} s reference, "
          f"which took {statistics.median(gauge.times):.4f} s here (median of {len(gauge.times)})")
    for name, unit in E2E:
        note = ""
        if name == "op_tail_s":
            note = f"  (p{pct} of {nops} per-op medians over {len(walls)} passes)"
        elif name == "op_p50_s":
            note = f"  (median of {nops} per-op medians)"
        elif name == "setup_s":
            note = "  (median set-up: " + ", ".join(f"{t:.4f}" for t in setup_scaled) + "; raw median " \
                f"{statistics.median(setup_raw):.4f})"
        elif name == "wall_s":
            note = "  (median pass: " + ", ".join(f"{w:.3f}" for w in walls) + "; raw median " \
                f"{statistics.median(raw_walls):.3f})"
        print(f"  {name:<16} {values[name]:12.6f} {unit}{note}")
    for p in checker.problems[:20]:
        print(f"  FAILED {p}")
    emit(checker.failed == 0, checker.attempted, checker.failed,
         {k: (values[k], u) for k, u in E2E if k in E2E_JSON})


def run_traced(args, ops, base: str) -> None:
    checker = Checker()
    order = workloads.order(ops, args.seed)
    untraced_wall, results, _ = run_pass(order)
    checker.check_pass(results)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_ops = workloads.build(args.workload, os.path.join(base, "traced"), args.seed)
        traced_wall, traced_results, _ = run_pass(workloads.order(traced_ops, args.seed), tracer)
    finally:
        tracer.uninstall()
    checker.check_pass(traced_results)

    layer = tracer.metrics()
    overhead = traced_wall - untraced_wall
    # self-check: the spans of the ops account for the traced pass
    gap = traced_wall - tracer.root_time()
    if not (0.0 <= gap <= abs(overhead) + 0.01):
        checker.failed += 1
        checker.problems.append(f"span self times leave {gap:.4f} s of the traced pass unaccounted")
    kernel = probes.run(args.seed)

    os.makedirs(TRACE_DIR, exist_ok=True)
    span_file = os.path.join(TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write(span_file)

    metrics: Dict[str, Tuple[float, str]] = {}
    for name in tracing.METRICS:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (layer[name], "ratio" if name.endswith("_per_call") else unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, value in kernel.items():
        metrics[name] = (value, "ns" if name.endswith("_ns") else "s")
    metrics["ops.failed_ratio"] = (checker.failed / checker.attempted, "ratio")
    metrics["ops.undecided_ratio"] = (checker.undecided / checker.attempted, "ratio")

    print(f"workload {args.workload}: traced pass {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
          f"{len(tracer.start)} spans written to {span_file}")
    selfs = {k: v for k, (v, _) in metrics.items() if k.endswith(".self_s") or k in ("linalg.rref_s", "linalg.mul_s")}
    top = max(selfs, key=selfs.get)
    print(f"  largest self time: {top} = {selfs[top]:.3f} s; span self times sum to {tracer.root_time():.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:16.6f} {unit}")
    for p in checker.problems[:20]:
        print(f"  FAILED {p}")
    emit(checker.failed == 0, checker.attempted, checker.failed, metrics)


def run_all(args) -> None:
    """Each workload in its own process, then one table of every metric."""
    rows = {}
    attempted = failed = 0
    correct = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        rows[name] = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) >= 3 and parts[0] in dict(E2E):
                rows[name][parts[0]] = float(parts[1])
    print()
    print(f"{'metric':<16} {'unit':<6}" + "".join(f"{w:>14}" for w in workloads.WORKLOADS))
    for metric, unit in E2E:
        print(f"{metric:<16} {unit:<6}" + "".join(f"{rows[w][metric]:14.6f}" for w in workloads.WORKLOADS))
    metrics = {f"{w}.{m}": (rows[w][m], u) for w in workloads.WORKLOADS for m, u in E2E}
    emit(correct, attempted, failed, metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qdweight", "cli.py")):
        die("run from the root of a qdweight checkout: src/qdweight is missing")
    sys.path.insert(0, src)
    if args.workload == "all":
        if args.trace:
            die("--workload all prints the end-to-end metrics; trace one workload at a time")
        run_all(args)
        return 0

    base = os.path.join(os.getcwd(), WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        gauge = reference.Gauge()
        ops, setup_raw, setup_scaled = setup(args.workload, args.seed, src, base, gauge)
        preflight(ops, args.seed)
        if args.trace:
            run_traced(args, ops, base)
        else:
            run_untraced(args, ops, gauge, setup_raw, setup_scaled)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(os.getcwd(), WORK_DIR))
    return 0


if __name__ == "__main__":
    sys.exit(main())
