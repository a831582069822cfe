"""Byte-identity check of the hmmdkit CLI between two source trees.

Runs the same invocations against two trees and prints one JSON line that
compares their exit codes, stdout and stderr:

    python tools/report_diff.py --tree parent=/path/to/old/src --tree change=src

The cases:

- every distinct command of the benchmark's seed-0 workloads (built by
  ``perfbench/workloads.py``, imported, not edited) and every method of
  the four shipped fixtures, each in json and text format, with and
  without ``--oracle``;
- ``write_problem(parse_problem(text))`` of every input and every mutant;
- ``--mutants`` seeded one-change and as many two-change mutants of every
  input, made by ``tests/test_probio.py``'s ``mutants`` (a value replaced,
  a key dropped or added, a list entry repeated) and run with the first
  command of their input in json format;
- an argv sweep: missing and unknown subcommands; missing, unknown,
  repeated and abbreviated flags; ``--flag=value``; bad ``--format``,
  ``--method`` and ``--weights`` values; ``-h`` in several positions; and
  two copies of the MCKP fixture with a number past Python's int/str
  digit limit.

The first tree builds the inputs and mutants once, in ``--workdir`` (a
temporary directory by default). Then each tree runs every case in one
child process of its own, in process through ``hmmdkit.cli.main``, so two
versions never share an interpreter. The summary counts the cases and the
identical ones per kind, with the first tree's exit codes, and lists the
rest in three groups: ``stderr_only`` (same exit code and stdout; the
first example of each pair of messages), ``accepted_changes`` (one tree
exits 0, the other does not) and ``other_changes``. Paths under the work
directory read ``$WORK``. The exit status is 0 when every case is
identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _strip(argv: list[str]) -> list[str]:
    """An op's argv without --format, --oracle and --output."""
    out, rest = [], iter(argv)
    for arg in rest:
        if arg in ("--format", "--output"):
            next(rest)
        elif arg != "--oracle":
            out.append(arg)
    return out


def _draw(doc, picks: int, rng: random.Random, mutants) -> list:
    """``picks`` of ``mutants(doc)``, drawn uniformly with replacement, in random order."""
    count = sum(1 for _ in mutants(doc))
    want = sorted(rng.randrange(count) for _ in range(picks))
    drawn = []
    for i, mutant in enumerate(mutants(doc)):
        while want and want[0] == i:
            drawn.append(mutant)
            want.pop(0)
        if not want:
            break
    rng.shuffle(drawn)
    return drawn


def _argv_sweep(morph: str, assign: str, commands) -> list[list[str]]:
    synth, asg = ["synth", "--input", morph], ["assign", "--input", assign]
    missing = str(Path(morph).with_name("missing.json"))
    return [
        [], ["bogus"], ["bogus", "--input", morph], ["--input", morph], ["synth"], ["synth", "--input"],
        ["synth", "--input", missing], ["rank", "--input", assign],
        ["assign", "--input", missing, "--method", "pareto", "--weights", "1,2,3"],
        [*synth, "--frobnicate"], [*synth, "extra"], [*synth, "--seed", "1"], [*synth, "-i", morph],
        [*synth, "--input", morph], [*asg, "--method", "exact", "--method", "greedy"],
        [*synth, "--format", "json", "--format", "text"], [*synth, "--oracle", "--oracle"],
        ["synth", "--inp", morph], [*synth, "--form", "json"], [*asg, "--meth", "exact"], [*synth, "--orac"],
        [*asg, "--weight", "1,2,3"], ["synth", f"--input={morph}"], [*synth, "--format=json"],
        [*asg, "--method=exact", "--weights=1,2,3"], [*synth, "--oracle=1"], [*synth, "--output="],
        [*synth, "--method="], [*synth, "--format"], [*synth, "--format", "xml"], [*synth, "--format="],
        [*synth, "--method", "bogus"], [*asg, "--method", "pareto", "--weights", "1,2,3"],
        [*asg, "--weights", "zero"], [*asg, "--weights", "-1,2,3"], [*asg, "--weights=-1,2,3"],
        [*asg, "--weights", "1,,2"], [*asg, "--weights", "1,2"], [*synth, "--weights", "1"],
        ["-h"], ["--help"], ["-h", "synth"], ["bogus", "-h"], [*synth, "-h"], ["synth", "-h", "--input", morph],
        [*synth, "--frobnicate", "-h"], ["synth", "--input", "-h"], [*asg, "--weights", "-h"],
        [*synth, "--output", "--oracle"], ["synth", "--input", "--format", "json"],
        ["synth", "--input="], [*asg, "--weights="], [*synth, "--method", ""], [*synth, "--output", ""],
        *([command, "--help"] for command in commands),
    ]


def _build(src: str, workdir: Path, count: int) -> None:
    """Write the inputs, the mutants and ``plan.json`` (every case) into ``workdir``."""
    sys.path[:0] = [src, str(ROOT / "perfbench"), str(ROOT / "tests")]
    import workloads
    from hmmdkit import probio
    from hmmdkit.cli import COMMANDS
    from test_probio import mutants

    first: dict[str, list[str]] = {}  # input path -> the first command run on it
    commands: list[list[str]] = []
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 0, workdir / workload).ops:
            argv = _strip(op.argv)
            first.setdefault(argv[2], argv)
            if argv not in commands:
                commands.append(argv)
    by_type = {spec[0]: (name, spec[1]) for name, spec in COMMANDS.items()}
    fixtures = workdir / "fixtures"
    fixtures.mkdir()
    for name in workloads.FIXTURES:
        path = fixtures / name
        path.write_text(probio.load_fixture(name), encoding="utf-8")
        command, methods = by_type[probio.parse_problem(path.read_text(encoding="utf-8")).problem_type]
        commands += [[command, "--input", str(path), "--method", m] for m in methods]
        first[str(path)] = commands[-1]
    cases = [
        {"kind": "command", "argv": [*argv, "--format", fmt, *oracle]}
        for argv in commands for fmt in ("json", "text") for oracle in ([], ["--oracle"])
    ]
    cases += [{"kind": "write", "path": path} for path in first]
    rng = random.Random("report_diff:0")
    (workdir / "mutants").mkdir()
    for path, argv in first.items():
        drawn = _draw(json.loads(Path(path).read_text(encoding="utf-8")), 2 * count, rng, mutants)
        # the first half as drawn, the second half changed once more
        docs = drawn[:count] + [_draw(m, 1, rng, mutants)[0] for m in drawn[count:]]
        for k, mutant in enumerate(docs):
            stem = f"{Path(path).parent.name}-{Path(path).name}-{1 + k // count}-{k % count}"
            target = workdir / "mutants" / f"{stem}.json"
            target.write_text(json.dumps(mutant, indent=1), encoding="utf-8")
            mutated = [argv[0], "--input", str(target), *argv[3:], "--format", "json"]
            cases += [{"kind": "mutant", "argv": mutated}, {"kind": "write", "path": str(target)}]
    morph, assign = (str(fixtures / name) for name in ("course_example.morph", "table5_assign.assign"))
    cases += [{"kind": "argv", "argv": argv} for argv in _argv_sweep(morph, assign, COMMANDS)]
    # numbers past Python's int/str digit limit: a 5,000-digit budget literal
    # and an item value "1e5000"
    doc = json.loads(probio.load_fixture("table5_mckp.mckp"))
    big = {"budget": json.dumps(doc).replace('"budget": 15', '"budget": ' + "9" * 5000)}
    doc["payload"]["groups"][0]["items"][1]["value"] = ["1e5000"]
    big["value"] = json.dumps(doc)
    for name, text in big.items():
        path = fixtures / f"big_{name}.mckp"
        path.write_text(text, encoding="utf-8")
        cases.append({"kind": "argv", "argv": ["mckp", "--input", str(path), "--format", "json"]})
    (workdir / "plan.json").write_text(json.dumps(cases), encoding="utf-8")


def _worker(src: str, workdir: Path, label: str) -> None:
    """Run every case of ``plan.json`` and write [exit code, stdout, stderr] per case."""
    sys.path.insert(0, src)
    os.environ.pop("HMMD_KIT_GUARD", None)
    from hmmdkit import cli, probio

    results = []
    for case in json.loads((workdir / "plan.json").read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if case["kind"] == "write":
                    text = Path(case["path"]).read_text(encoding="utf-8")
                    try:
                        print(probio.write_problem(probio.parse_problem(text)), end="")
                        code = 0
                    except probio.ParseError as exc:
                        print(exc, file=sys.stderr)
                        code = 3
                else:
                    code = cli.main(case["argv"])
            except Exception as exc:  # a crash is a result too
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
        results.append([code, out.getvalue(), err.getvalue()])
    (workdir / f"results-{label}.json").write_text(json.dumps(results), encoding="utf-8")


def compare(workdir: Path, labels: list[str]) -> dict:
    cases = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
    a, b = (json.loads((workdir / f"results-{label}.json").read_text(encoding="utf-8")) for label in labels)
    work = str(workdir)

    def shown(value):
        return json.loads(json.dumps(value).replace(work, "$WORK"))

    summary = {"trees": labels, "cases": {}, "identical": {}, "exit_codes": {}, "stderr_only": [],
               "accepted_changes": [], "other_changes": []}
    pairs: dict[tuple[str, str], dict] = {}
    for case, ra, rb in zip(cases, a, b):
        kind = case["kind"]
        summary["cases"][kind] = summary["cases"].get(kind, 0) + 1
        summary["identical"].setdefault(kind, 0)
        codes = summary["exit_codes"].setdefault(kind, {})  # the first tree's
        codes[ra[0]] = codes.get(ra[0], 0) + 1
        if ra == rb:
            summary["identical"][kind] += 1
            continue
        what = case.get("argv", case.get("path"))
        if ra[:2] == rb[:2]:
            key = (ra[2], rb[2])
            if key not in pairs:
                pairs[key] = {"kind": kind, "first": what, "count": 0, "stderr": list(key)}
                summary["stderr_only"].append(pairs[key])
            pairs[key]["count"] += 1
            continue
        entry = {"kind": kind, "case": what, "exit": [ra[0], rb[0]],
                 "stdout_differs": ra[1] != rb[1], "stderr": [ra[2], rb[2]]}
        group = "accepted_changes" if (ra[0] == 0) != (rb[0] == 0) else "other_changes"
        summary[group].append(entry)
    return shown(summary)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    parser.add_argument("--mutants", type=int, default=10, help="one- and two-change mutants per input")
    parser.add_argument("--workdir", type=Path, help="an empty directory for inputs and results")
    parser.add_argument("--build", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "LABEL"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build:
        _build(args.build, args.workdir, args.mutants)
        return 0
    if args.worker:
        _worker(args.worker[0], args.workdir, args.worker[1])
        return 0
    if len(args.tree) != 2:
        parser.error("give two trees: --tree LABEL=SRC --tree LABEL=SRC")
    trees = dict(t.split("=", 1) for t in args.tree)
    if len(trees) != 2:
        parser.error("the two trees need different labels")
    with contextlib.ExitStack() as stack:
        workdir = args.workdir or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        workdir = workdir.resolve()
        workdir.mkdir(parents=True, exist_ok=True)
        child = [sys.executable, __file__, "--workdir", str(workdir)]
        first = os.path.abspath(next(iter(trees.values())))
        subprocess.run([*child, "--build", first, "--mutants", str(args.mutants)], check=True)
        for label, src in trees.items():
            subprocess.run([*child, "--worker", os.path.abspath(src), label], check=True)
        summary = compare(workdir, list(trees))
    print(json.dumps(summary, sort_keys=True))
    differs = summary["stderr_only"] or summary["accepted_changes"] or summary["other_changes"]
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
