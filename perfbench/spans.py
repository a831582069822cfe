"""Layer spans recorded from outside the program.

``Tracer.installed()`` rebinds every ``hmmdkit.*`` module attribute that
*is* one of the layer functions below to a wrapper that records a span
(op id, name, parent, start, end) and, for some layers, a work count
derived from the call's arguments. Rebinding every module that holds the
function, not only the one defining it, keeps the spans when a later
change moves imports around. The wrappers sit at layer boundaries only:
``morph.n_dominates`` runs millions of times per op and is never wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


def _combos(args, kwargs, result):
    system, node_id = args[0], args[1]
    child_das = args[2] if len(args) > 2 else kwargs.get("child_das")
    total = 1
    for child in system.node(node_id).children:
        pool = child_das[child.id] if child_das and child.id in child_das else child.alternatives
        total *= len(pool)
    return {"morph.compose_calls": 1, "morph.combos": total}


def _paths(args, kwargs, result):
    total = 1
    for stage in args[0].stages:
        total *= len(stage.decisions)
    return {"frameworks.trajectory_paths": total}


def _front(args, kwargs, result):
    return {"core.non_dominated_items": len(args[0]), "core.front_items": len(result)}


def _knapsack_cells(args, kwargs, result):
    inst = args[0]
    costs = [int(it.cost) for it in inst.items if it.cost != 0]
    return {"select.dp_cells": len(costs) * (min(int(inst.budget), sum(costs)) + 1)}


def _mckp_cells(args, kwargs, result):
    inst = args[0]
    cap = min(int(inst.budget), sum(int(it.cost) for g in inst.groups for it in g.items))
    return {"select.dp_cells": len(inst.groups) * (cap + 1)}


def _points(args, kwargs, result):
    return {"cluster.points": len(args[0].ids)}


def _bytes_in(args, kwargs, result):
    return {"probio.bytes_in": len(args[0].encode())}


def _bytes_out(args, kwargs, result):
    return {"probio.bytes_out": len(result.encode())}


#: (module, function) -> (span name, count function or None)
LAYERS = {
    ("hmmdkit.cli", "main"): ("cli.main", None),
    ("hmmdkit.probio", "parse_problem"): ("probio.parse", _bytes_in),
    ("hmmdkit.probio", "write_result"): ("probio.render", _bytes_out),
    ("hmmdkit.core", "non_dominated"): ("core.non_dominated", _front),
    ("hmmdkit.core", "pareto_layers"): ("core.pareto_layers", None),
    ("hmmdkit.core", "normalize_estimates"): ("core.normalize", None),
    ("hmmdkit.morph", "compose_node"): ("morph.compose", _combos),
    ("hmmdkit.morph", "priorities_from_quality"): ("morph.priorities", None),
    ("hmmdkit.frameworks", "design_trajectory"): ("frameworks.trajectory", _paths),
    ("hmmdkit.frameworks", "run_three_set_pipeline"): ("frameworks.pipeline", None),
    ("hmmdkit.frameworks", "plan_improvement"): ("frameworks.improve", None),
    ("hmmdkit.select", "knapsack_exact"): ("select.exact", _knapsack_cells),
    ("hmmdkit.select", "mckp_exact_dp"): ("select.exact", _mckp_cells),
    ("hmmdkit.select", "knapsack_greedy"): ("select.greedy", None),
    ("hmmdkit.select", "mckp_greedy"): ("select.greedy", None),
    ("hmmdkit.select", "scalarize"): ("select.scalarize", None),
    ("hmmdkit.cluster", "build_dendrogram"): ("cluster.dendrogram", _points),
    ("hmmdkit.assign", "assign_exact"): ("assign.exact", None),
    ("hmmdkit.assign", "assign_pareto"): ("assign.pareto", None),
    ("hmmdkit.assign", "assign_greedy"): ("assign.greedy", None),
    ("hmmdkit.rank", "rank_outranking"): ("rank.outranking", None),
    ("hmmdkit.rank", "rank_utility"): ("rank.other", None),
    ("hmmdkit.rank", "rank_pareto_layers"): ("rank.other", None),
    ("hmmdkit.rank", "rank_ideal_point"): ("rank.other", None),
    ("hmmdkit.route", "tsp_two_opt"): ("route.tsp", None),
    ("hmmdkit.route", "tsp_nearest_neighbor"): ("route.tsp", None),
    ("hmmdkit.route", "tsp_brute_force"): ("route.tsp", None),
}

SPAN_NAMES = sorted({name for name, _ in LAYERS.values()})


class Tracer:
    """Spans and counts in memory; ``write`` saves the spans as JSON lines."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [op id, name, parent index, start ns, end ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.op: str | None = None

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([self.op, name, stack[-1] if stack else -1, time.perf_counter_ns(), 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][4] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counts[key] += n
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, op_id: str):
        """Record spans for one op; every rebinding is undone on exit."""
        originals = {}
        for (modname, attr), (name, count) in LAYERS.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is not None:  # a later change may move or drop a layer function
                originals[id(fn)] = (fn, self._wrap(fn, name, count))
        rebound = []
        for modname, mod in list(sys.modules.items()):
            if modname != "hmmdkit" and not modname.startswith("hmmdkit."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    rebound.append((mod, attr, value))
        self.op = op_id
        try:
            yield
        finally:
            for mod, attr, value in rebound:
                setattr(mod, attr, value)
            self.op = None

    def self_ns(self) -> dict[str, int]:
        """Span duration minus the part its direct children cover, summed by name."""
        child = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (_, name, _, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def solve_ns(self) -> int:
        """Time inside ``cli.main`` spent in layers other than ``probio``."""
        total = 0
        for _, name, parent, start, end in self.spans:
            if parent >= 0 and self.spans[parent][1] == "cli.main" and not name.startswith("probio."):
                total += end - start
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                     "start_ns": start, "end_ns": end}) + "\n")
