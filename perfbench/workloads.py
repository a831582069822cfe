"""Seeded input generation for the benchmark workloads.

Every input is built as hmmdkit problem objects, written with
``probio.write_problem`` and parsed back before any timing starts, so a
malformed generator fails at set-up instead of showing up as slow ops.
Instances stay inside every default guard: the benchmark never sets
``HMMD_KIT_GUARD`` and never passes ``--seed`` to the CLI.

An ``Op`` is one CLI invocation ``python -m hmmdkit <argv>``. A workload
is a list of distinct ops; the runner shuffles them into rounds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from hmmdkit import probio
from hmmdkit.assign import AssignmentInstance
from hmmdkit.cluster import DissimilarityMatrix, Linkage
from hmmdkit.core import Best, CriteriaFrame, Criterion, Direction, EstimateVector, OrdinalScale
from hmmdkit.frameworks import (
    ImprovementPart,
    ImprovementSpec,
    IntegrationNode,
    PairActions,
    Stage,
    ThreeSetSpec,
    TrajectorySpec,
)
from hmmdkit.morph import DesignAlternative, MorphNode, MorphSystem
from hmmdkit.rank import RankingInstance
from hmmdkit.route import TspInstance
from hmmdkit.select import Group, Item, KnapsackInstance, MckpInstance

WORKLOADS = ("cli_mix", "synth_front", "solver_mix")

#: draws per instance before generation gives up
_REDRAWS = 200
#: dominance-test budget of the small nodes around the widest one
_SMALL_CHECKS = (0, 3_000)
#: dominance-test budget of the internal nodes, which compose derived composites
_INTERNAL_CHECKS = (0, 6_000)
#: dominance-test bands of the synth_front widest nodes and trajectory specs
_LIGHT_CHECKS = (8_000, 20_000)
_HEAVY_CHECKS = (28_000, 45_000)

FIXTURES = ("course_example.morph", "student_strategy.morph",
            "table5_assign.assign", "table5_mckp.mckp")


@dataclass
class Op:
    """One CLI invocation; ``output`` is set when the report goes to a file."""

    id: str
    argv: list[str]
    fmt: str
    output: Path | None = None


@dataclass
class Input:
    """A problem file plus the size properties the solve cost depends on."""

    name: str
    path: Path
    props: dict = field(default_factory=dict)


class Builder:
    """Writes inputs into ``workdir`` and collects the ops that use them."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.inputs: dict[str, Input] = {}
        self.ops: list[Op] = []

    def add_input(self, name: str, ptype: str, payload, **props) -> Input:
        text = probio.write_problem(probio.ProblemFile(probio.SPEC_VERSION, ptype, payload))
        path = self.workdir / f"{name}.{ptype}"
        path.write_text(text, encoding="utf-8")
        inp = Input(name, path, {"type": ptype, "bytes": len(text.encode()), **props})
        self.inputs[name] = inp
        return inp

    def add_op(self, cmd: str, inp: Input, *args: str, fmt: str = "json",
               oracle: bool = False, to_file: bool = False) -> Op:
        tag = "-".join([cmd, inp.name, *(a.lstrip("-") for a in args), fmt]
                       + (["oracle"] if oracle else []) + (["file"] if to_file else []))
        argv = [cmd, "--input", str(inp.path), *args, "--format", fmt]
        if oracle:
            argv.append("--oracle")
        output = None
        if to_file:
            output = self.workdir / f"out-{len(self.ops)}.{fmt}"
            argv += ["--output", str(output)]
        op = Op(tag, argv, fmt, output)
        self.ops.append(op)
        return op

    def revalidate(self) -> None:
        """Parse every written input again; the canonical text must round-trip."""
        for inp in self.inputs.values():
            text = inp.path.read_text(encoding="utf-8")
            if probio.write_problem(probio.parse_problem(text)) != text:
                raise RuntimeError(f"input {inp.name} does not round-trip")


# ------------------------------------------------------------------ helpers


def _frame(rng: random.Random, k: int) -> CriteriaFrame:
    return CriteriaFrame(tuple(
        Criterion(f"c{i + 1}", rng.choice((Direction.MAXIMIZE, Direction.MINIMIZE)),
                  Fraction(rng.randint(1, 4)))
        for i in range(k)
    ))


def _vec(rng: random.Random, k: int, hi: int = 9) -> EstimateVector:
    return EstimateVector([rng.randint(0, hi) for _ in range(k)])


def _items(rng: random.Random, prefix: str, n: int, k: int, cost_hi: int) -> tuple[Item, ...]:
    return tuple(Item(f"{prefix}{i + 1}", _vec(rng, k), rng.randint(1, cost_hi)) for i in range(n))


def _points_matrix(rng: random.Random, n: int, span: int = 60) -> tuple[tuple[int, ...], ...]:
    """Manhattan distances between random integer points: exact and metric."""
    pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)]
    return tuple(
        tuple(abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts) for a in pts
    )


def _ranking(rng, n, k):
    return probio.RankProblem(
        RankingInstance(_frame(rng, k), tuple((f"a{i + 1}", _vec(rng, k)) for i in range(n))),
        Fraction(3, 5), Fraction(2, 5),
    )


def _knapsack(rng, n, k, cost_hi, budget):
    return probio.KnapsackProblem(KnapsackInstance(_frame(rng, k), _items(rng, "i", n, k, cost_hi), budget))


def _mckp(rng, groups, per, k, cost_hi, budget):
    gs = tuple(Group(f"g{g + 1}", _items(rng, f"g{g + 1}i", per, k, cost_hi)) for g in range(groups))
    return probio.MckpProblem(MckpInstance(_frame(rng, k), gs, budget))


def _cluster(rng, n, linkage, k):
    ids = tuple(f"e{i + 1}" for i in range(n))
    return probio.ClusterProblem(DissimilarityMatrix(ids, _points_matrix(rng, n)), linkage, k)


def _assign(rng, agents, positions, k, capacity=1):
    ags = tuple(f"s{i + 1}" for i in range(agents))
    pos = tuple(f"p{j + 1}" for j in range(positions))
    cells = tuple(tuple(_vec(rng, k) for _ in pos) for _ in ags)
    return probio.AssignProblem(
        AssignmentInstance(ags, pos, cells, _frame(rng, k), {p: capacity for p in pos})
    )


def _tsp(rng, n):
    ids = tuple(f"t{i + 1}" for i in range(n))
    return probio.TspProblem(TspInstance(ids, _points_matrix(rng, n)), None)


def _front(pools, pairs, value, drop_zero):
    """(feasible, front, checks) of one composition.

    Mirrors ``compose_node`` and ``design_trajectory`` without calling them:
    w is the worst constrained pair value (3 when none is constrained), the
    counts are per priority level 1..3, and a decision is on the front when
    no other quality vector dominates its own; ties all stay on the front.
    ``checks`` is about the number of dominance tests ``core.non_dominated``
    makes over the feasible list: each decision scans from the start until
    the first decision whose vector dominates its own, or to the end.
    Compositions are walked depth-first in ``itertools.product`` order, so
    a prefix holding a dropped zero pair is skipped whole.
    """
    k = len(pools)
    links: list[list] = [[] for _ in range(k)]  # (earlier child, value table)
    for a, b in pairs:
        links[b].append((a, [[value(x, y) for y, _ in pools[b]] for x, _ in pools[a]]))
    tally: Counter = Counter()
    first: dict = {}
    chosen = [0] * k

    def walk(d, w, ones, twos):
        for i, (_, p) in enumerate(pools[d]):
            wd = w
            for c, table in links[d]:
                v = table[chosen[c]][i]
                if v is not None and v < wd:
                    wd = v
            if wd == 0 and drop_zero:
                continue
            o, t = ones + (p == 1), twos + (p == 2)
            if d + 1 < k:
                chosen[d] = i
                walk(d + 1, wd, o, t)
            else:
                vec = (wd, o, o + t)
                if vec not in first:
                    first[vec] = sum(tally.values())
                tally[vec] += 1

    walk(0, 3, 0, 0)
    feasible, front, checks = sum(tally.values()), 0, 0
    for v, n in tally.items():
        stops = [first[u] for u in tally if u != v and all(x >= y for x, y in zip(u, v))]
        if stops:
            checks += n * (min(stops) + 1)
        else:
            front += n
            checks += n * (feasible - 1)
    return feasible, front, checks


def _draw_value(rng, p3, zero_share=0.0):
    if rng.random() < zero_share:
        return 0
    return 3 if rng.random() < p3 else rng.choice((1, 2))


def _trajectory(rng, stages, width, all_pairs, band=(1, 10), checks=(0, 20_000)):
    """A stage spec redrawn until its front size and dominance tests fall in bands."""
    pairs = list(itertools.combinations(range(stages), 2) if all_pairs
                 else zip(range(stages), range(1, stages)))
    for _ in range(_REDRAWS):
        st = tuple(
            Stage(s + 1, tuple((f"d{s + 1}_{j + 1}", rng.randint(1, 3)) for j in range(width)))
            for s in range(stages)
        )
        compat = {
            (a, b): _draw_value(rng, 0.3, 0.1)
            for s, t in pairs
            for a, _ in st[s].decisions
            for b, _ in st[t].decisions
        }
        _, front, cost = _front([s.decisions for s in st], pairs,
                                lambda a, b: compat[(a, b)], drop_zero=False)
        if band[0] <= front <= band[1] and checks[0] <= cost <= checks[1]:
            break
    else:
        raise RuntimeError(f"no {stages}x{width} trajectory spec met its bands")
    props = {"paths": width ** stages, "all_pairs": all_pairs, "front": front, "checks": cost}
    return probio.TrajectoryProblem(TrajectorySpec(st, compat), all_pairs), props


def _integrate(rng, leaves_per_node):
    scale = OrdinalScale(1, 3, Best.HIGH)

    def table(arity):
        return {key: rng.randint(1, 3) for key in itertools.product(range(1, 4), repeat=arity)}

    subs = tuple(
        IntegrationNode(
            f"n{i + 1}", scale,
            children=tuple(IntegrationNode(f"n{i + 1}l{j + 1}", scale, estimate=rng.randint(1, 3))
                           for j in range(leaves_per_node)),
            table=table(leaves_per_node),
        )
        for i in range(2)
    )
    return probio.IntegrateProblem(IntegrationNode("root", scale, children=subs, table=table(2)))


def _pipeline(rng, n1, n2, k1, k2, actions_per_pair, budget):
    ids1 = tuple(f"u{i + 1}" for i in range(n1))
    ids2 = tuple(f"v{j + 1}" for j in range(n2))
    frame, aframe = _frame(rng, 3), _frame(rng, 2)
    corr = tuple(tuple(_vec(rng, 3) for _ in ids2) for _ in ids1)
    actions = tuple(
        PairActions(a, b, _items(rng, "x", actions_per_pair, 2, 6))
        for a in ids1 for b in ids2
    )
    spec = ThreeSetSpec(
        DissimilarityMatrix(ids1, _points_matrix(rng, n1)),
        DissimilarityMatrix(ids2, _points_matrix(rng, n2)),
        k1, k2, frame, corr, aframe, actions, budget,
    )
    return probio.PipelineProblem(spec, Linkage.AVERAGE)


def _improve(rng, parts, per, budget):
    return probio.ImproveProblem(ImprovementSpec(
        _frame(rng, 3),
        tuple(ImprovementPart(f"q{i + 1}", _items(rng, "a", per, 3, 12)) for i in range(parts)),
        budget,
    ))


def _composition(rng, compat, nid, draw_kids, p3s, zero_share, density, band, checks):
    """Draw ``nid``'s children and compat table until its front size and
    dominance tests fall in bands; returns the children and their sizes.

    ``draw_kids()`` gives (child id, [(alternative id, priority)]) pairs;
    each draw takes its share of best-value pairs from ``p3s``. The first
    alternative of each child never takes a zero, so every node keeps a
    feasible composition; unconstrained pairs count as the best value.
    """
    for _ in range(_REDRAWS):
        kids = draw_kids()
        p3 = rng.choice(p3s)
        pairs = list(itertools.combinations(range(len(kids)), 2))
        table = {}
        for x, y in pairs:
            for ia, (a, _) in enumerate(kids[x][1]):
                for ib, (b, _) in enumerate(kids[y][1]):
                    if rng.random() < density:
                        table[(a, b)] = _draw_value(rng, p3, zero_share if ia and ib else 0.0)
        feasible, front, cost = _front([alts for _, alts in kids], pairs,
                                       lambda a, b: table.get((a, b), table.get((b, a))), True)
        if band[0] <= front <= band[1] and checks[0] <= cost <= checks[1]:
            break
    else:
        raise RuntimeError(f"no compat table for node {nid} met its bands")
    compat.update({(nid, a, b): v for (a, b), v in table.items()})
    combos = 1
    for _, alts in kids:
        combos *= len(alts)
    return kids, {"node": nid, "combos": combos, "feasible": feasible,
                  "front": front, "checks": cost}


def _morph(rng, widest, band, checks, zero_share, density, depth):
    """A depth-2 or depth-3 system whose widest node is ``widest`` = (children, alternatives).

    Every node's front size is known at generation, so internal nodes can
    give a full compat table over the derived ``<child>_<k>`` composites;
    derived composites all carry priority 1 (one dominance layer).
    """
    compat: dict = {}
    nodes = []
    counter = itertools.count(1)

    def leaf_level(shape, node_band):
        nid = f"s{next(counter)}"
        children, alts = shape
        draw = lambda: [
            (f"{nid}{chr(97 + c)}",
             [(f"{nid}{chr(97 + c)}{a + 1}", 1 if rng.random() < 0.3 else rng.choice((2, 3)))
              for a in range(alts)])
            for c in range(children)
        ]
        kids, info = _composition(rng, compat, nid, draw, (0.3,), zero_share, density, *node_band)
        nodes.append(info)
        tree = MorphNode(nid, children=tuple(
            MorphNode(cid, alternatives=tuple(DesignAlternative(a, p) for a, p in alts))
            for cid, alts in kids
        ))
        return tree, info["front"]

    def internal(nid, subtrees):
        kids = [(t.id, [(f"{t.id}_{k + 1}", 1) for k in range(f)]) for t, f in subtrees]
        # derived composites all tie on priority, so only the share of
        # best-value pairs keeps the front small
        _, info = _composition(rng, compat, nid, lambda: kids, (0.02, 0.05, 0.1, 0.2, 0.3),
                               0.0, 1.0, (1, 5), _INTERNAL_CHECKS)
        nodes.append(info)
        return MorphNode(nid, children=tuple(t for t, _ in subtrees)), info["front"]

    small = lambda: leaf_level((rng.choice((3, 4)), rng.choice((3, 4))), ((1, 10), _SMALL_CHECKS))
    big = leaf_level(widest, (band, checks))
    if depth == 2:
        subtrees = [big, small()] + ([small()] if rng.random() < 0.5 else [])
        rng.shuffle(subtrees)
        root, _ = internal("root", subtrees)
    else:
        root, _ = internal("root", [internal("m1", [big, small()]),
                                    internal("m2", [small(), small()])])
    props = {"depth": depth, "zero_share": zero_share, "density": density,
             "combos_max": max(n["combos"] for n in nodes),
             "front_max": max(n["front"] for n in nodes), "nodes": nodes}
    return probio.MorphProblem(MorphSystem(root, compat)), props


# ---------------------------------------------------------------- workloads


def _oracle_passes(op: Op) -> bool:
    """Run an ``--oracle`` op in process; heuristics may miss their declared ratio."""
    from hmmdkit.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(op.argv) == 0


def _cli_mix(b: Builder, rng: random.Random) -> None:
    """Fixtures plus small instances of every other type: start-up dominates."""
    for fname in FIXTURES:
        pf = probio.parse_problem(probio.load_fixture(fname))
        b.add_input(fname.split(".")[0], pf.problem_type, pf.payload, fixture=True)
    fx = b.inputs
    b.add_op("synth", fx["course_example"], fmt="json")
    b.add_op("synth", fx["course_example"], fmt="text", oracle=True)
    b.add_op("synth", fx["student_strategy"], fmt="json", to_file=True)
    b.add_op("assign", fx["table5_assign"], "--method", "greedy", fmt="text", oracle=True)
    b.add_op("assign", fx["table5_assign"], "--method", "exact", fmt="json")
    b.add_op("assign", fx["table5_assign"], "--method", "pareto", fmt="json", oracle=True)
    b.add_op("mckp", fx["table5_mckp"], "--method", "greedy", fmt="text", oracle=True)
    b.add_op("mckp", fx["table5_mckp"], "--method", "exact", fmt="json", to_file=True)

    # (command = problem type, n, factory, ops as (extra args, fmt, oracle, to_file))
    small = [
        ("rank", 12, lambda: _ranking(rng, 12, 3), [
            (("--method", "utility"), "json", True, False),
            (("--method", "pareto"), "text", False, False),
            (("--method", "outranking"), "json", True, False),
            (("--method", "ideal"), "text", False, True),
        ]),
        ("knapsack", 14, lambda: _knapsack(rng, 14, 3, 9, 30), [
            (("--method", "greedy"), "json", True, False),
            (("--method", "exact", "--weights", "1,2,1"), "text", False, False),
        ]),
        ("cluster", 10, lambda: _cluster(rng, 10, Linkage.SINGLE, 3), [
            ((), "json", True, False),
            (("--method", "complete"), "text", False, False),
        ]),
        ("tsp", 8, lambda: _tsp(rng, 8), [
            (("--method", "two_opt"), "json", True, False),
            (("--method", "nearest"), "text", False, False),
            (("--method", "brute"), "json", False, True),
        ]),
        ("trajectory", 3, lambda: _trajectory(rng, 3, 3, False)[0], [
            ((), "json", True, False),
        ]),
        ("integrate", 7, lambda: _integrate(rng, 2), [
            ((), "text", True, False),
        ]),
        ("pipeline", 9, lambda: _pipeline(rng, 5, 4, 2, 2, 2, 8), [
            ((), "json", True, False),
        ]),
        ("improve", 4, lambda: _improve(rng, 4, 2, 15), [
            ((), "text", True, False),
        ]),
    ]
    for cmd, n, factory, variants in small:
        # redraw until every --oracle op meets its declared ratio; the draw
        # sequence depends only on the seed
        for _ in range(50):
            inp = b.add_input(cmd, cmd, factory(), n=n)
            start = len(b.ops)
            for args, fmt, oracle, to_file in variants:
                b.add_op(cmd, inp, *args, fmt=fmt, oracle=oracle, to_file=to_file)
            if all(_oracle_passes(op) for op in b.ops[start:] if "--oracle" in op.argv):
                break
            del b.ops[start:]
        else:
            raise RuntimeError(f"no {cmd} instance met its oracle in 50 draws")


def _synth_front(b: Builder, rng: random.Random) -> None:
    """Morph models and trajectory specs whose cost is the Pareto filter.

    The grid is the same for every seed; only the tables differ, and each
    widest node is redrawn until its front size and dominance tests fall in
    the stated bands, so the workload costs about the same on every seed.
    Three heavy models make a quarter of the ops, so p90 falls inside their
    time range rather than on the edge of the light ones.
    """
    grid = [  # (widest node, front band, dominance tests, zero share, density, depth)
        ((5, 4), (1, 3), _LIGHT_CHECKS, 0.2, 0.8, 2),
        ((4, 7), (4, 10), _HEAVY_CHECKS, 0.3, 0.8, 3),
        ((5, 4), (4, 10), _LIGHT_CHECKS, 0.3, 0.8, 3),
        ((4, 6), (4, 10), _LIGHT_CHECKS, 0.3, 1.0, 2),
        ((4, 7), (4, 10), _HEAVY_CHECKS, 0.3, 1.0, 2),
        ((4, 6), (1, 3), _LIGHT_CHECKS, 0.2, 1.0, 3),
        ((5, 5), (4, 10), _LIGHT_CHECKS, 0.3, 1.0, 2),
        ((4, 6), (1, 3), _HEAVY_CHECKS, 0.2, 0.8, 3),
    ]
    for i, (widest, band, checks, zero_share, density, depth) in enumerate(grid):
        payload, props = _morph(rng, widest, band, checks, zero_share, density, depth)
        inp = b.add_input(f"model{i + 1}", "morph", payload, **props)
        b.add_op("synth", inp, fmt="text" if i % 4 == 0 else "json")
    for i, (stages, width, all_pairs) in enumerate(
        [(5, 4, False), (3, 10, False), (4, 6, True), (5, 4, True)]
    ):
        payload, props = _trajectory(rng, stages, width, all_pairs, (1, 10), _LIGHT_CHECKS)
        inp = b.add_input(f"traj{i + 1}", "trajectory", payload, **props)
        b.add_op("trajectory", inp, fmt="json")


def _solver_mix(b: Builder, rng: random.Random) -> None:
    """Selection, clustering, assignment and ranking kernels; morph stays idle.

    Outranking, the slowest kernel, makes three ops of the twelve, so p90
    falls inside its time range rather than on the edge of it. The Pareto
    assignment has two positions: with three, its front size, and so its
    cost, varied 6x between seeds and moved p90.
    """
    for i, (n, budget) in enumerate(((45, 450), (55, 550))):
        ks = b.add_input(f"knapsack{i + 1}", "knapsack", _knapsack(rng, n, 3, 20, budget),
                         n=n, dp_cells=n * (budget + 1))
        b.add_op("knapsack", ks, "--method", "exact", fmt="json" if i else "text")
    mk = b.add_input("mckp", "mckp", _mckp(rng, 28, 4, 3, 20, 360), n=112, dp_cells=28 * 361)
    b.add_op("mckp", mk, "--method", "exact", fmt="text")
    im = b.add_input("improve", "improve", _improve(rng, 25, 3, 120), n=75)
    b.add_op("improve", im, fmt="json")
    pl = b.add_input("pipeline", "pipeline", _pipeline(rng, 14, 12, 4, 4, 3, 40), n=26)
    b.add_op("pipeline", pl, fmt="json")
    cl = b.add_input("cluster", "cluster", _cluster(rng, 34, Linkage.AVERAGE, 5), n=34)
    b.add_op("cluster", cl, fmt="json")
    asg = b.add_input("assign", "assign", _assign(rng, 8, 4, 3, capacity=2), n=8)
    b.add_op("assign", asg, "--method", "exact", fmt="json")
    front = b.add_input("assign_front", "assign", _assign(rng, 8, 2, 3), n=8)
    b.add_op("assign", front, "--method", "pareto", fmt="text")
    for i in range(3):
        rk = b.add_input(f"rank{i + 1}", "rank", _ranking(rng, 80, 4), n=80)
        b.add_op("rank", rk, "--method", "outranking", fmt="text" if i == 1 else "json")
    ts = b.add_input("tsp", "tsp", _tsp(rng, 60), n=60)
    b.add_op("tsp", ts, fmt="json")


_BUILDERS = {"cli_mix": _cli_mix, "synth_front": _synth_front, "solver_mix": _solver_mix}


def build(workload: str, seed: int, workdir: Path) -> Builder:
    """Generate, write and re-validate one workload's inputs for ``seed``."""
    workdir.mkdir(parents=True, exist_ok=True)
    b = Builder(workdir)
    _BUILDERS[workload](b, random.Random(f"{workload}:{seed}"))
    b.revalidate()
    return b
