"""Kernel ladders for the solvers, and compile, parse, write and process rungs
for start-up and exit.

Times each rung of eleven scaling ladders (outranking, Pareto layers,
knapsack, MCKP, dendrogram, assignment, Pareto assignment, 2-opt,
synthesis, compose, trajectory) on seeded
instances from the benchmark's generators (``perfbench/workloads.py``,
imported, not edited), one ``compile()`` of each module a CLI run may
compile from source, a warm ``probio.parse_problem`` of two seed-0
benchmark inputs and a ``probio.write_problem`` of each, parsed once, and
three child processes: ``python -m hmmdkit synth`` on the course example
(integers only, so it loads no exact numbers), ``python -m hmmdkit mckp``
on the MCKP fixture (whose weights load ``exact`` and ``fractions``) and a
bare ``python -c pass``, the tree-independent reference. A process rung reads either the child's whole wall time or its
exit phase, from the last ``atexit`` hook (EXIT_PROBE) to the moment this
process has waited for the child: the interpreter's teardown, which the
``hmmdkit`` entry skips with ``os._exit`` and ``python -c pass`` does not,
and the kernel's release of the process. The tool writes the medians as
JSON:

    python tools/kernel_ladder.py --tree parent=/path/to/old/src \\
        --tree change=src --out BENCH_kernels.json

Each ``--tree LABEL=SRC`` is a source directory holding the ``hmmdkit``
package; it is timed in child processes of its own, so two versions never
share an interpreter. The trees take turns in ABBA order over ROUNDS short
rounds: in each round every tree's child builds the instances, makes one
warm-up call, runs a full garbage collection and then makes one timed
call of each rung's kernel. The collection keeps a full collection made
due by earlier rungs out of the timed call (without it, the
``solver_mix`` pipeline parse read 1.6x in one tree and not in the
other). A rung's time is the median over the rounds. Its ratio is taken
within each round, each tree's time over the first tree's, so a slow
phase of a shared host cancels out when it lasts less than a round; the
report gives the quartiles of those per-round ratios. A rung whose
quartiles straddle 1 is listed as unresolved for that tree: its rounds
do not agree on which tree is faster. Rungs whose code every tree shares
should read about 1, and a ratio away from 1 on such a rung means a slow
phase lasted most of the run. A rung whose kernel a tree refuses with
GuardExceeded, or whose module a tree does not have, reads null there.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 15

#: (kernel, size) per rung; sizes follow the solver_mix instances
RUNGS = (
    [("outranking", {"n": n, "k": 4}) for n in (20, 40, 80, 160, 320, 640)]
    + [("pareto_layers", {"n": n, "k": 3}) for n in (200, 800)]
    + [("knapsack", {"n": n, "budget": b}) for n, b in ((30, 300), (60, 600), (120, 1200))]
    + [("mckp", {"groups": 28, "per_group": m, "budget": 360}) for m in (2, 4, 8)]
    + [("dendrogram", {"n": n, "linkage": "average"}) for n in (15, 30, 60)]
    # exact assignment, 3 criteria: the solver_mix shape of 4 positions of 2
    # seats, then seats for all of 20 and 40 agents, past the 9-agent guard
    # that enumeration needs
    + [("assign", {"agents": n, "positions": p, "capacity": 2})
       for n, p in ((6, 4), (8, 4), (9, 4), (20, 10), (40, 20))]
    # the Pareto front of all maximal assignments: the solver_mix front op's
    # shape, then 9 agents on 4 positions, 3,024 maximal assignments
    + [("assign_pareto", {"agents": n, "positions": p, "capacity": 1}) for n, p in ((8, 2), (9, 4))]
    # 2-opt from the nearest-neighbour tour: the solver_mix size, then double
    + [("two_opt", {"cities": n}) for n in (60, 120)]
    # the synth_front grid's first model of each widest node shape: the whole
    # synthesis, then compose_node on the widest node alone
    + [(kernel, {"widest": w, "front": f, "checks": c, "zero_share": z, "density": d,
                 "depth": depth})
       for kernel in ("synthesis", "compose")
       for w, f, c, z, d, depth in (((5, 4), (1, 3), "light", 0.2, 0.8, 2),
                                    ((4, 6), (4, 10), "light", 0.3, 1.0, 2),
                                    ((4, 7), (4, 10), "heavy", 0.3, 0.8, 3))]
    + [("trajectory", {"stages": n, "width": w, "all_pairs": a})
       for n, w, a in ((5, 4, False), (4, 6, True))]
    # start-up: what a run compiles when bytecode is not cached (cli, core,
    # probio, the module that owns the problem type and the modules it
    # imports, exact when the file needs an exact number, or help for -h)
    + [("compile", {"module": m})
       for m in ("cli", "core", "probio", "exact", "criteria", "rank", "select", "knapsack", "mckp", "cluster",
                 "assign", "route", "morph", "synth", "frameworks", "trajectory", "integrate", "pipeline", "improve",
                 "help")]
    # parsing and writing back two seed-0 benchmark inputs
    + [(kernel, {"workload": w, "input": i})
       for kernel in ("parse", "write") for w, i in (("synth_front", "model1"), ("solver_mix", "pipeline"))]
    # the process: a synth run and an mckp run through the package's
    # __main__.py, and a bare interpreter
    + [("process", {"run": r, "phase": p}) for r in ("synth", "mckp", "pass") for p in ("wall", "exit")]
)

#: the first atexit hook registered runs last; it writes the clock
#: (CLOCK_MONOTONIC, shared by every process) to stderr as the last line
EXIT_PROBE = (
    "import atexit, sys, time\n"
    "atexit.register(lambda: print(time.perf_counter(), file=sys.stderr))\n"
)
#: ``python -m hmmdkit`` under EXIT_PROBE: runpy runs the package's
#: __main__.py as ``-m`` does; the arguments follow the ``-c`` program
PROBED_MAIN = EXIT_PROBE + 'import runpy\nrunpy.run_module("hmmdkit", run_name="__main__", alter_sys=True)\n'
#: process rung -> (subcommand, shipped fixture) of its hmmdkit run
PROCESS_RUNS = {"synth": ("synth", "course_example.morph"), "mckp": ("mckp", "table5_mckp.mckp")}


def run_probed(program: str, argv: list[str], env: dict) -> dict:
    """Run ``python -c program *argv``, where ``program`` starts with
    EXIT_PROBE; return its probe: the wall ms from spawn to exit and the
    exit phase's ms."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", program, *argv], env=env, capture_output=True, text=True)
    end = time.perf_counter()
    if proc.returncode:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr}")
    at = proc.stderr.split()[-1]
    return {"wall": (end - start) * 1000, "exit": (end - float(at)) * 1000}


@functools.cache
def _inputs(workload: str) -> dict[str, str]:
    """The seed-0 input texts of ``workload``, by input name."""
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        built = workloads.build(workload, 0, Path(tmp))
        return {name: inp.path.read_text(encoding="utf-8") for name, inp in built.inputs.items()}


def _call(kernel: str, size: dict):
    """Build the rung's instance and return a no-argument call of its
    kernel, or None for a compile rung whose module the tree lacks. A
    process rung's call returns the ms it reads."""
    import workloads
    from hmmdkit.assign import assign_exact, assign_pareto
    from hmmdkit.cluster import Linkage, build_dendrogram
    from hmmdkit.knapsack import knapsack_exact
    from hmmdkit.mckp import mckp_exact_dp
    from hmmdkit.morph import compose_node, walk
    from hmmdkit.rank import rank_outranking, rank_pareto_layers
    from hmmdkit.route import tsp_nearest_neighbor, tsp_two_opt
    from hmmdkit.synth import synthesize_tree_trace
    from hmmdkit.trajectory import design_trajectory

    if kernel == "compile":
        import hmmdkit

        path = Path(hmmdkit.__file__).with_name(f"{size['module']}.py")
        if not path.is_file():  # a module this tree does not have
            return None
        source = path.read_text(encoding="utf-8")
        # dont_inherit: compile as the import system does, without this file's __future__ flags
        return lambda: compile(source, str(path), "exec", dont_inherit=True)
    if kernel == "process":
        import hmmdkit

        src = str(Path(hmmdkit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("HMMD_KIT_GUARD", None)
        if size["run"] == "pass":
            program, argv = EXIT_PROBE, []
        else:
            command, fixture = PROCESS_RUNS[size["run"]]
            path = str(Path(hmmdkit.__file__).with_name("fixtures") / fixture)
            program, argv = PROBED_MAIN, [command, "--input", path, "--format", "json"]
        return lambda: run_probed(program, argv, env)[size["phase"]]
    if kernel == "parse":
        from hmmdkit.probio import parse_problem

        text = _inputs(size["workload"])[size["input"]]
        return lambda: parse_problem(text)
    if kernel == "write":
        from hmmdkit.probio import parse_problem, write_problem

        pf = parse_problem(_inputs(size["workload"])[size["input"]])
        return lambda: write_problem(pf)
    # a compose rung draws the same model as the synthesis rung of its size
    model = "synthesis" if kernel == "compose" else kernel
    rng = random.Random(f"ladder:{model}:{sorted(size.items())}")
    if kernel == "outranking":
        prob = workloads._ranking(rng, size["n"], size["k"])
        return lambda: rank_outranking(prob.instance, prob.p, prob.q)
    if kernel == "pareto_layers":
        prob = workloads._ranking(rng, size["n"], size["k"])
        return lambda: rank_pareto_layers(prob.instance)
    if kernel == "knapsack":
        prob = workloads._knapsack(rng, size["n"], 3, 20, size["budget"])
        return lambda: knapsack_exact(prob.instance)
    if model == "synthesis":
        checks = workloads._LIGHT_CHECKS if size["checks"] == "light" else workloads._HEAVY_CHECKS
        prob, _ = workloads._morph(rng, size["widest"], size["front"], checks, size["zero_share"],
                                   size["density"], size["depth"])
        if kernel == "synthesis":
            return lambda: synthesize_tree_trace(prob.system)
        widest = max(
            (n for n in walk(prob.system.root) if n.children and all(c.is_leaf for c in n.children)),
            key=lambda n: math.prod(len(c.alternatives) for c in n.children),
        )
        return lambda: compose_node(prob.system, widest.id)
    if kernel == "trajectory":
        prob, _ = workloads._trajectory(rng, size["stages"], size["width"], size["all_pairs"],
                                        (1, 10), workloads._LIGHT_CHECKS)
        return lambda: design_trajectory(prob.spec, prob.all_pairs)
    if kernel == "dendrogram":
        prob = workloads._cluster(rng, size["n"], Linkage(size["linkage"]), None)
        return lambda: build_dendrogram(prob.matrix, prob.linkage)
    if kernel == "assign":
        prob = workloads._assign(rng, size["agents"], size["positions"], 3, size["capacity"])
        return lambda: assign_exact(prob.instance)
    if kernel == "assign_pareto":
        prob = workloads._assign(rng, size["agents"], size["positions"], 3, size["capacity"])
        return lambda: assign_pareto(prob.instance)
    if kernel == "two_opt":
        inst = workloads._tsp(rng, size["cities"]).instance
        tour = tsp_nearest_neighbor(inst, inst.ids[0])
        return lambda: tsp_two_opt(inst, tour)
    prob = workloads._mckp(rng, size["groups"], size["per_group"], 3, 20, size["budget"])
    return lambda: mckp_exact_dp(prob.instance)


def _worker(src: str) -> None:
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from hmmdkit.core import GuardExceeded

    samples = []
    for kernel, size in RUNGS:
        call = _call(kernel, size)
        if call is None:
            samples.append(None)
            continue
        try:
            call()
        except GuardExceeded:
            samples.append(None)
            continue
        gc.collect()
        start = time.perf_counter()
        ms = call()
        samples.append(ms if kernel == "process" else (time.perf_counter() - start) * 1000)
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


def _median(values: list, digits: int) -> float | None:
    """The rounded median, or None when a round has no time (GuardExceeded)."""
    return None if None in values else round(statistics.median(values), digits)


def _quartiles(ratios: list) -> list[float] | None:
    """The rounded quartiles of the per-round ratios, or None when a round has none."""
    if None in ratios:
        return None
    return [round(q, 3) for q in statistics.quantiles(ratios, n=4, method="inclusive")]


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
    samples = {label: [[] for _ in RUNGS] for label in trees}  # label -> rung -> ms per round
    for r in range(ROUNDS):
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", os.path.abspath(trees[label])],
                capture_output=True, text=True, check=True,
            )
            for rounds, ms in zip(samples[label], json.loads(proc.stdout)):
                rounds.append(ms)
    base = next(iter(trees))
    first = samples[base]
    ratios = {  # label -> rung -> each round's time over the first tree's
        label: [[None if None in (x, y) else x / y for x, y in zip(s[i], first[i])] for i in range(len(RUNGS))]
        for label, s in list(samples.items())[1:]
    }
    quartiles = {label: [_quartiles(r) for r in rungs] for label, rungs in ratios.items()}
    report = {
        "what": "median ms of one kernel call per rung (of one child's wall or exit phase per "
                "process rung), and the quartiles of the per-round ratio of each tree's time to the "
                "first tree's; instances from perfbench/workloads.py",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": _commit(),
        "calls_per_rung": ROUNDS,
        "trees": {label: {"src_sha256": _src_sha256(Path(src))} for label, src in trees.items()},
        "rungs": [
            {"kernel": kernel, **size,
             "median_ms": {label: _median(s[i], 2) for label, s in samples.items()},
             f"round_ratio_quartiles_to_{base}": {label: q[i] for label, q in quartiles.items()}}
            for i, (kernel, size) in enumerate(RUNGS)
        ],
        # (kernel, size) of each rung whose ratio quartiles straddle 1
        "unresolved": {
            label: [
                {"kernel": kernel, **size} for (kernel, size), qs in zip(RUNGS, q)
                if qs is not None and qs[0] <= 1 <= qs[2]
            ]
            for label, q in quartiles.items()
        },
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
