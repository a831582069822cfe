"""Kernel ladders for the outranking, knapsack, MCKP, dendrogram and synthesis solvers.

Times each rung of five scaling ladders on seeded instances from the
benchmark's generators (``perfbench/workloads.py``, imported, not edited)
and writes the medians as JSON:

    python tools/kernel_ladder.py --tree parent=/path/to/old/src \\
        --tree change=src --out BENCH_kernels.json

Each ``--tree LABEL=SRC`` is a source directory holding the ``hmmdkit``
package; it is timed in child processes of its own, so two versions never
share an interpreter. The trees take turns over ROUNDS rounds, each child
making REPEAT calls per rung, so a slow phase of a shared host falls on
every tree alike. A rung's time is the median of all its calls of
the kernel alone (instance built and one warm-up call made beforehand).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5
ROUNDS = 3

#: (kernel, size) per rung; sizes follow the solver_mix instances
RUNGS = (
    [("outranking", {"n": n, "k": 4}) for n in (20, 40, 80, 160)]
    + [("knapsack", {"n": n, "budget": b}) for n, b in ((30, 300), (60, 600), (120, 1200))]
    + [("mckp", {"groups": 28, "per_group": m, "budget": 360}) for m in (2, 4, 8)]
    + [("dendrogram", {"n": n, "linkage": "average"}) for n in (15, 30, 60)]
    # the synth_front grid's first model of each widest node shape
    + [("synthesis", {"widest": w, "front": f, "checks": c, "zero_share": z, "density": d,
                      "depth": depth})
       for w, f, c, z, d, depth in (((5, 4), (1, 3), "light", 0.2, 0.8, 2),
                                    ((4, 6), (4, 10), "light", 0.3, 1.0, 2),
                                    ((4, 7), (4, 10), "heavy", 0.3, 0.8, 3))]
)


def _call(kernel: str, size: dict):
    """Build the rung's instance and return a no-argument call of its kernel."""
    import workloads
    from hmmdkit.cluster import Linkage, build_dendrogram
    from hmmdkit.morph import synthesize_tree_trace
    from hmmdkit.rank import rank_outranking
    from hmmdkit.select import knapsack_exact, mckp_exact_dp

    rng = random.Random(f"ladder:{kernel}:{sorted(size.items())}")
    if kernel == "outranking":
        prob = workloads._ranking(rng, size["n"], size["k"])
        return lambda: rank_outranking(prob.instance, prob.p, prob.q)
    if kernel == "knapsack":
        prob = workloads._knapsack(rng, size["n"], 3, 20, size["budget"])
        return lambda: knapsack_exact(prob.instance)
    if kernel == "synthesis":
        checks = workloads._LIGHT_CHECKS if size["checks"] == "light" else workloads._HEAVY_CHECKS
        prob, _ = workloads._morph(rng, size["widest"], size["front"], checks, size["zero_share"],
                                   size["density"], size["depth"])
        return lambda: synthesize_tree_trace(prob.system)
    if kernel == "dendrogram":
        prob = workloads._cluster(rng, size["n"], Linkage(size["linkage"]), None)
        return lambda: build_dendrogram(prob.matrix, prob.linkage)
    prob = workloads._mckp(rng, size["groups"], size["per_group"], 3, 20, size["budget"])
    return lambda: mckp_exact_dp(prob.instance)


def _worker(src: str) -> None:
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    samples = []
    for kernel, size in RUNGS:
        call = _call(kernel, size)
        call()
        times = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            call()
            times.append((time.perf_counter() - start) * 1000)
        samples.append(times)
    print(json.dumps(samples))


def _src_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "hmmdkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.tree:
        parser.error("give at least one --tree LABEL=SRC")
    trees = dict(t.split("=", 1) for t in args.tree)
    samples = {label: [[] for _ in RUNGS] for label in trees}
    for r in range(ROUNDS):
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", os.path.abspath(trees[label])],
                capture_output=True, text=True, check=True,
            )
            for pooled, times in zip(samples[label], json.loads(proc.stdout)):
                pooled.extend(times)
    report = {
        "what": "median ms of one kernel call per rung; instances from perfbench/workloads.py",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": _commit(),
        "calls_per_rung": ROUNDS * REPEAT,
        "trees": {label: {"src_sha256": _src_sha256(Path(src))} for label, src in trees.items()},
        "rungs": [
            {"kernel": kernel, **size,
             "median_ms": {label: round(statistics.median(s[i]), 2) for label, s in samples.items()}}
            for i, (kernel, size) in enumerate(RUNGS)
        ],
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
