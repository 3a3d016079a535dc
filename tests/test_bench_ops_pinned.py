"""Byte identity of every benchmark op against recorded digests.

Each op of ``bench/workloads.build(W, workdir, 3)`` for the three workloads
runs in process through ``qdweight.cli.main``.  The sha256 of its stdout, its
exit code and the sha256 of any ``--out`` file are compared with
``bench_ops_pinned.json``; the work directory is replaced by a fixed token
before hashing, so the digests do not depend on where the fixtures live.

A change that alters an op's output on purpose re-records the file with

    PYTHONPATH=src python tests/test_bench_ops_pinned.py > tests/bench_ops_pinned.json

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).parent / "bench_ops_pinned.json"
SEED = 3
TOKEN = "<WORK>"


def _sha(text: str, workdir: str) -> str:
    return hashlib.sha256(text.replace(workdir, TOKEN).encode("utf-8")).hexdigest()


def digests() -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    from qdweight.cli import main

    out: dict = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            for op in workloads.order(workloads.build(workload, workdir, SEED), SEED):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(op.argv))
                row = {"code": code, "stdout": _sha(stdout.getvalue(), workdir)}
                if "--out" in op.argv:
                    path = op.argv[op.argv.index("--out") + 1]
                    row["out"] = _sha(Path(path).read_text(encoding="utf-8"), workdir)
                out[op.id] = row
    return out


def test_bench_ops_are_pinned():
    want = json.loads(PINNED.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [op for op in sorted(got) if got[op] != want[op]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
