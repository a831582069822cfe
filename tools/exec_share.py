"""Executed share of the hmmdkit code that each benchmark op compiles.

Builds the seed-0 inputs and ops of the three benchmark workloads with
``perfbench/workloads.build`` (imported, not edited) and runs every op once
per source tree, each in a child process of its own, as the benchmark
does (``python -m hmmdkit <argv>``), under ``sys.setprofile``. After the
op, the child parses the source of every hmmdkit module the op loaded and
reports, for the op:

- ``compiled``: the AST nodes of those modules, which a run compiles when
  no bytecode is cached;
- ``never_called``: the nodes of the functions the op never called. A
  function's nodes are its own (its signature, decorators and body), not
  those of the functions and lambdas nested in it; module-level code,
  class bodies included, counts as run;
- ``share``: the executed share, 1 - never_called / compiled;
- ``stdlib``: the standard-library modules the op loaded that a bare
  interpreter (``python -c pass``) has not, such as ``json`` or
  ``fractions``; the child imports nothing of its own before the op ends,
  and ``runpy`` and ``atexit``, which it does import, every
  ``python -m hmmdkit`` run loads too.

A function is matched to the code objects the profiler saw by its first
line (its first decorator's, if it has any) and name, so two lambdas on
one line count as called when either is. Usage::

    python tools/exec_share.py --tree parent=/path/to/old/src --tree change=src

Each ``--tree LABEL=SRC`` is a source directory holding the ``hmmdkit``
package. Every op prints one JSON line per tree; the last line is the JSON
summary: per tree and workload, the mean of each figure over the ops and,
under ``stdlib``, each standard module with the number of ops that load
it, and per tree the most compiled nodes any op takes above the first tree.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_mix", "synth_front", "solver_mix")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def function_nodes(tree: ast.Module) -> dict[tuple[int, str], int]:
    """(first line, name) -> own AST node count of each function in ``tree``."""
    own: dict[tuple[int, str], int] = {}

    def visit(node: ast.AST, key: tuple[int, str] | None) -> None:
        if isinstance(node, FUNCTIONS):
            lines = [d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno]
            key = (min(lines), getattr(node, "name", "<lambda>"))
        if key is not None:
            own[key] = own.get(key, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, key)

    visit(tree, None)
    return own


def measure(called: set[tuple[str, int, str]], loaded: list[str]) -> dict:
    """Compiled and never-called AST nodes over the loaded hmmdkit modules,
    and the standard modules among ``loaded``."""
    compiled = never = 0
    modules = sorted(m for m in loaded if m == "hmmdkit" or m.startswith("hmmdkit."))
    for name in modules:
        path = sys.modules[name].__file__
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        compiled += sum(1 for _ in ast.walk(tree))
        never += sum(n for (line, fn), n in function_nodes(tree).items() if (path, line, fn) not in called)
    stdlib = sorted(m for m in loaded if m.split(".")[0] in sys.stdlib_module_names)
    return {"modules": len(modules), "compiled": compiled, "never_called": never,
            "share": round(1 - never / compiled, 4), "stdlib": stdlib}


#: ``python -c WORKER SRC *argv``: runs ``python -m hmmdkit *argv`` from the
#: tree SRC under the profiler. An ``atexit`` hook prints the op's figures,
#: since the process entry may end the process with ``os._exit``, which runs
#: the hooks and no code after the op; it lists the loaded modules before
#: it imports this file. The process exits with the op's code.
WORKER = """
import atexit, io, runpy, sys

called = set()


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))


def report():
    sys.setprofile(None)
    loaded = list(sys.modules)
    sys.path.insert(0, {tools!r})
    from exec_share import measure
    import json
    print(json.dumps(measure(called, loaded)), file=sys.__stdout__, flush=True)


atexit.register(report)
sys.path.insert(0, sys.argv[1])
sys.argv = ["hmmdkit", *sys.argv[2:]]
sys.stdout = sys.stderr = io.StringIO()
sys.setprofile(profile)
runpy.run_module("hmmdkit", run_name="__main__", alter_sys=True)
""".format(tools=str(Path(__file__).resolve().parent))


def _bare_modules() -> set[str]:
    """The modules a bare interpreter holds."""
    out = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def _means(rows: list[dict]) -> dict:
    means = {key: round(statistics.mean(r[key] for r in rows), 4 if key == "share" else 1)
             for key in ("compiled", "never_called", "share")}
    return {**means, "stdlib": dict(sorted(Counter(m for r in rows for m in r["stdlib"]).items()))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    args = parser.parse_args(argv)
    if not args.tree:
        parser.error("give at least one --tree LABEL=SRC")
    trees = {label: os.path.abspath(src) for label, src in (t.split("=", 1) for t in args.tree)}
    # the inputs are built with the first tree; every tree writes them alike
    sys.path[:0] = [next(iter(trees.values())), str(ROOT / "perfbench")]
    import workloads

    bare = _bare_modules()
    rows: dict[str, dict[str, list[dict]]] = {label: {w: [] for w in WORKLOADS} for label in trees}
    over: dict[str, int] = dict.fromkeys(trees, 0)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for op in workloads.build(workload, 0, Path(tmp) / workload).ops:
                first = None
                for label, src in trees.items():
                    proc = subprocess.run([sys.executable, "-c", WORKER, src, *op.argv], capture_output=True, text=True)
                    if proc.returncode != 0:
                        raise RuntimeError(f"{label}: {op.id} exited {proc.returncode}: {proc.stderr}")
                    row = json.loads(proc.stdout.splitlines()[-1])
                    row["stdlib"] = [m for m in row["stdlib"] if m not in bare]
                    first = row["compiled"] if first is None else first
                    over[label] = max(over[label], row["compiled"] - first)
                    rows[label][workload].append(row)
                    print(json.dumps({"workload": workload, "op": op.id, "tree": label, **row}), flush=True)
    summary = {
        label: {**{w: _means(r) for w, r in by_workload.items()}, "max_compiled_over_first": over[label]}
        for label, by_workload in rows.items()
    }
    print(json.dumps({"summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
