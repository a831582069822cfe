"""hmmdkit benchmark: seeded CLI workloads timed end to end, plus a layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_mix --seed 0 --seconds 38 --trace 0

One op is one user-style invocation ``python -m hmmdkit <cmd> --input F
...`` run as a child process with ``PYTHONPATH=src``. With ``--trace 0``
the ops run as a closed loop with one client (the next op starts when the
previous one exits) and the end-to-end metrics are reported. Their times
are scaled by ``REF_INTERP_MS`` over a ``python -c pass`` probe run next
to each op, because contention from other processes on the host moves op
times and interpreter starts together. With
``--trace 1`` the same ops run in process through ``hmmdkit.cli.main``,
once untraced and once with layer spans (see ``spans.py``), interleaved
with start-up probes in child processes; the per-layer metrics are
reported. Times in the trace are summed over one pass of the op list.

An op is correct when it exits 0, its JSON report round-trips through
``probio.parse_result``, and its sha256 matches the reference digest:
the one in ``digests.json`` when that file holds the workload and seed
(``--record`` writes them), otherwise the first digest seen in the run.

The last line of standard output is the JSON result; the line before it
holds run metadata (Python version, CPU count, commit, seed, inputs, and
the unscaled times).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DEFAULT_DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 3
OP_TIMEOUT_S = 60
#: a bare interpreter start (``python -c pass``) runs after every this many ops
INTERP_PROBE_EVERY = 2
#: end-to-end times are scaled to this interpreter start (its median on a
#: 2-CPU x86-64 Linux machine, Python 3.11.7), so host contention that slows
#: every process alike cancels out of run-to-run comparisons
REF_INTERP_MS = 75.0
#: hmmdkit modules reported by name in the import split; others sum into other.import_ms
MODULES = ("core", "rank", "select", "cluster", "assign", "route", "morph",
           "frameworks", "probio", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HMMD_KIT_GUARD", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, bytes, float]:
    """(exit code, stdout, stderr, wall ms from spawn to exit); -1 on timeout."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, b"", b"", (time.perf_counter() - start) * 1000
    return proc.returncode, proc.stdout, proc.stderr, (time.perf_counter() - start) * 1000


def run_op(op, env) -> tuple[int, bytes, float]:
    if op.output is not None:
        op.output.unlink(missing_ok=True)
    code, out, _, wall = run_child([sys.executable, "-m", "hmmdkit", *op.argv], env)
    return code, report_of(op, out), wall


def report_of(op, stdout: bytes) -> bytes:
    if op.output is None:
        return stdout
    return op.output.read_bytes() if op.output.exists() else b""


class Checker:
    """Exit status, JSON round-trip and digest checks for op reports."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = dict(reference)
        self.seen: dict[str, str] = {}
        self.failures: dict[str, str] = {}  # op id -> first failed check

    def ok(self, op, code: int, report: bytes) -> bool:
        failure = self._failure(op, code, report)
        if failure:
            self.failures.setdefault(op.id, failure)
        return not failure

    def _failure(self, op, code: int, report: bytes) -> str | None:
        from hmmdkit import probio

        if code != 0:
            return f"exit code {code}"
        if not report:
            return "empty report"
        if op.fmt == "json":
            text = report.decode("utf-8")
            try:
                parsed = probio.parse_result(text)
            except probio.ParseError as exc:
                return f"parse_result: {exc}"
            if probio.write_result(parsed, probio.ResultFormat.STRUCTURED) != text:
                return "report does not round-trip"
        digest = hashlib.sha256(report).hexdigest()
        self.seen.setdefault(op.id, digest)
        if digest != self.reference.setdefault(op.id, digest):
            return "digest differs from the reference"
        return None


def load_digests(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def interp_probe(env) -> float:
    """Wall ms of a bare ``python -c pass`` child."""
    code, _, err, wall = run_child([sys.executable, "-c", "pass"], env)
    if code != 0:
        raise RuntimeError(f"python -c pass exited {code}: {err.decode(errors='replace')}")
    return wall


def setup(workloads, workload: str, seed: int, workdir: Path, env, checker):
    """Generate and re-validate the inputs, then run one untimed warm op.

    Returns the builder and the set-up seconds scaled to REF_INTERP_MS by
    an interpreter probe run right after it."""
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    built = workloads.build(workload, seed, workdir)
    warm = built.ops[0]
    code, report, _ = run_op(warm, env)
    if not checker.ok(warm, code, report):
        raise RuntimeError(f"warm op {warm.id} failed: {checker.failures[warm.id]}")
    took = time.perf_counter() - start
    return built, took, took * REF_INTERP_MS / interp_probe(env)


def rounds(ops, rng, seconds):
    """Shuffled passes over ``ops``; a new pass starts only while it is
    expected to end nearer to ``seconds`` than stopping now would."""
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if last and elapsed + last / 2 >= seconds:
            return
        order = list(ops)
        rng.shuffle(order)
        begun = time.perf_counter()
        yield order
        last = time.perf_counter() - begun


def timed_run(ops, env, checker, rng, seconds):
    """Closed loop over shuffled passes.

    After every INTERP_PROBE_EVERY ops an interpreter probe runs, and each
    op's wall time is also kept scaled to REF_INTERP_MS by the probe that
    follows it (the last ops use the last probe). Returns raw walls, scaled
    walls, probe walls, and the correct and attempted counts."""
    walls, probes, results = [], [], []
    for order in rounds(ops, rng, seconds):
        for op in order:
            code, report, wall = run_op(op, env)
            results.append((op, code, report))
            walls.append(wall)
            if len(walls) % INTERP_PROBE_EVERY == 0:
                probes.append(interp_probe(env))
    if not probes:
        probes.append(interp_probe(env))
    scaled = [w * REF_INTERP_MS / probes[min(i // INTERP_PROBE_EVERY, len(probes) - 1)]
              for i, w in enumerate(walls)]
    correct = sum(checker.ok(op, code, report) for op, code, report in results)
    return walls, scaled, probes, correct, len(results)


def end_to_end_metrics(setup_times, walls, scaled, probes, correct, attempted):
    """Scaled metrics for the result, and their unscaled values for the metadata."""
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def timing(times, setups):
        return {
            "setup_s": statistics.median(setups),
            "ops_per_s": correct / (sum(times) / 1000),
            "op_ms_p50": statistics.median(times),
            "op_ms_p90": statistics.quantiles(times, n=10)[8],
        }

    units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}
    metrics = {k: (v, units[k]) for k, v in timing(scaled, [s for _, s in setup_times]).items()}
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    metrics["ok_ratio"] = (correct / attempted, "ratio")
    raw = timing(walls, [r for r, _ in setup_times])
    raw["interp_ms"] = statistics.median(probes)
    return metrics, raw


# -------------------------------------------------------------- traced run


def run_in_process(cli, op) -> tuple[int, bytes]:
    if op.output is not None:
        op.output.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    return code, report_of(op, out.getvalue().encode("utf-8"))


def import_split(stderr: bytes) -> dict[str, float]:
    """Self ms per hmmdkit module, plus the rest, from ``-X importtime``."""
    rows = []
    for line in stderr.decode().splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        rows.append((int(self_us), int(cum_us), name.rstrip()))
    top = min(len(n) - len(n.lstrip()) for _, _, n in rows)
    names = {m: f"{m}.import_ms" for m in ("init", *MODULES, "other", "deps")}
    names["cli"] = "cli.import_self_ms"  # cli.import_ms is the whole start-up split
    out = dict.fromkeys(names.values(), 0.0)
    own = 0
    for self_us, cum_us, name in rows:
        mod = name.strip()
        if mod != "hmmdkit" and not mod.startswith("hmmdkit."):
            continue
        own += self_us
        short = "init" if mod == "hmmdkit" else mod.split(".", 1)[1]
        out[names.get(short, names["other"])] += self_us / 1000
    total = sum(cum for _, cum, n in rows
                if len(n) - len(n.lstrip()) == top and n.strip().startswith("hmmdkit"))
    out["deps.import_ms"] = (total - own) / 1000
    return out


def traced_run(ops, env, checker, rng, seconds, workdir):
    from hmmdkit import cli
    from spans import SPAN_NAMES, Tracer

    tracer = Tracer()
    probes = {
        "interp": [sys.executable, "-c", "pass"],
        "import": [sys.executable, "-c", "import hmmdkit.cli"],
        "importtime": [sys.executable, "-X", "importtime", "-c", "import hmmdkit.cli"],
    }
    probe_ms: dict[str, list[float]] = {k: [] for k in probes}
    splits: list[dict[str, float]] = []
    plain_ns = traced_ns = 0
    attempted = correct = passes = 0
    kinds = list(probes)
    for order in rounds(ops, rng, seconds):
        for op in order:
            t = time.perf_counter_ns()
            code, report = run_in_process(cli, op)
            plain_ns += time.perf_counter_ns() - t
            correct += checker.ok(op, code, report)
            with tracer.installed(op.id):
                t = time.perf_counter_ns()
                code, report = run_in_process(cli, op)
                traced_ns += time.perf_counter_ns() - t
            correct += checker.ok(op, code, report)
            attempted += 2
            kind = kinds[attempted // 2 % len(kinds)]
            code, _, err, wall = run_child(probes[kind], env)
            if code == 0:
                probe_ms[kind].append(wall)
                if kind == "importtime":
                    splits.append(import_split(err))
        passes += 1
    tracer.write(workdir / "spans.jsonl")

    per_pass = 1e6 * passes  # ns summed over the run -> ms per pass
    self_ns = tracer.self_ns()
    metrics = {f"{name}_ms": (self_ns.get(name, 0) / per_pass, "ms") for name in SPAN_NAMES}
    metrics["cli.main_self_ms"] = metrics.pop("cli.main_ms")
    metrics["cli.solve_ms"] = (tracer.solve_ns() / per_pass, "ms")
    interp = statistics.median(probe_ms["interp"])
    metrics["cli.interp_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (statistics.median(probe_ms["import"]) - interp, "ms")
    for key in splits[0]:
        metrics[key] = (statistics.median(s[key] for s in splits), "ms")
    counts = tracer.counts
    for key, unit in (("core.non_dominated_items", "count"), ("morph.compose_calls", "count"),
                      ("morph.combos", "count"), ("frameworks.trajectory_paths", "count"),
                      ("select.dp_cells", "count"), ("cluster.points", "count"),
                      ("probio.bytes_in", "B"), ("probio.bytes_out", "B")):
        metrics[key] = (counts.get(key, 0) / passes, unit)
    items = counts.get("core.non_dominated_items", 0)
    metrics["core.front_ratio"] = (counts.get("core.front_items", 0) / items if items else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_ns / plain_ns, "ratio")
    return metrics, correct, attempted


# ------------------------------------------------------------------- main


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hmmdkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path, default=DEFAULT_DIGESTS,
                        help="reference digests by workload and seed")
    parser.add_argument("--record", action="store_true",
                        help="write this run's digests into --digests instead of checking them")
    args = parser.parse_args(argv)

    if not (SRC / "hmmdkit" / "cli.py").is_file():
        print(f"perfbench: no hmmdkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    stored = load_digests(args.digests)
    reference = {} if args.record else stored.get(args.workload, {}).get(str(args.seed), {})
    checker = Checker(reference)
    env = child_env()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"

    setup_times = []  # (raw, scaled) seconds
    for _ in range(SETUP_REPEATS):
        built, took, scaled = setup(workloads, args.workload, args.seed, workdir, env, checker)
        setup_times.append((took, scaled))
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    raw = None
    if args.trace:
        metrics, correct, attempted = traced_run(built.ops, env, checker, rng, args.seconds, workdir)
        samples = attempted
    else:
        walls, scaled, probes, correct, attempted = timed_run(built.ops, env, checker, rng, args.seconds)
        metrics, raw = end_to_end_metrics(setup_times, walls, scaled, probes, correct, attempted)
        samples = len(walls)

    if args.record:
        stored.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(checker.seen.items()))
        args.digests.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "source_sha256": source_digest(),
        "samples": samples, "unscaled": raw, "distinct_ops": len(built.ops),
        "digests_from": "file" if reference else "first run",
        "failures": checker.failures,
        "inputs": {name: inp.props for name, inp in built.inputs.items()},
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    failed = attempted - correct
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
