"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. All expected values are exact unless a tolerance is stated.
"""

import itertools
import math
import random
from fractions import Fraction

from conftest import course_system, oracle_normalize_estimates, table5_assignment_instance, table5_mckp_instance
from hmmdkit.assign import (
    AssignmentInstance,
    assign_exact,
    assign_greedy,
    assign_pareto,
)
from hmmdkit.cluster import DissimilarityMatrix, Linkage, build_dendrogram, cut_dendrogram
from hmmdkit.core import dominates
from hmmdkit.criteria import equal_weight_frame, scalarize
from hmmdkit.exact import EstimateVector
from hmmdkit.knapsack import KnapsackInstance, knapsack_exact, knapsack_greedy
from hmmdkit.mckp import Group, MckpInstance, mckp_exact_dp, mckp_greedy
from hmmdkit.morph import (
    CompositeDecision,
    DesignAlternative,
    MorphNode,
    MorphSystem,
    QualityVector,
    compose_node,
    n_dominates,
)
from hmmdkit.probio import (
    ResultFormat,
    load_fixture,
    parse_problem,
    parse_result,
    write_problem,
    write_result,
)
from hmmdkit.rank import RankingInstance, rank_pareto_layers
from hmmdkit.route import TspInstance, tsp_brute_force, tsp_nearest_neighbor, tsp_two_opt
from hmmdkit.select import Item
from hmmdkit.synth import synthesize_tree_trace
from hmmdkit.trajectory import Stage, Trajectory, TrajectorySpec, design_trajectory


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def vec(*v):
    return EstimateVector(v)


def qv(w, *counts):
    return QualityVector(w, tuple(counts))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_course_example_synthesis():
    system = course_system()
    expected = {
        "E": {
            (("L", "L2"), ("M", "M2"), ("F", "F2"), ("G", "G3")): qv(2, 4, 0, 0),
            (("L", "L3"), ("M", "M3"), ("F", "F2"), ("G", "G3")): qv(3, 2, 2, 0),
        },
        "H": {
            (("D", "D3"), ("O", "O3"), ("B", "B3")): qv(3, 3, 0, 0),
            (("D", "D3"), ("O", "O3"), ("B", "B4")): qv(3, 3, 0, 0),
        },
        "W": {
            (("P", "P4"), ("I", "I3"), ("C", "C3")): qv(3, 3, 0, 0),
        },
    }
    ok = True
    for part, want in expected.items():
        got = {d.selection: d.quality for d in compose_node(system, part)}
        ok = ok and got == want
    trace = synthesize_tree_trace(system)
    root = trace.root.decisions
    ok = ok and len(root) == 4
    e_ids = set(trace.nodes["E"].composite_ids)
    h_ids = set(trace.nodes["H"].composite_ids)
    w_ids = set(trace.nodes["W"].composite_ids)
    combos = {(s["E"], s["H"], s["W"]) for s in (dict(d.selection) for d in root)}
    ok = ok and combos == set(itertools.product(sorted(e_ids), sorted(h_ids), sorted(w_ids)))
    assert report(1, "course-example synthesis", ok)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_quality_space_incomparability():
    a, b = qv(1, 2, 1, 0), qv(3, 1, 0, 2)
    ok = not n_dominates(a, b) and not n_dominates(b, a)
    assert report(2, "quality-space incomparable pair", ok)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_reference_assignment():
    sol = assign_greedy(table5_assignment_instance())
    ok = sol.pairs == {("A1", "V6"), ("A2", "V10"), ("A3", "V12"), ("A5", "V1")}
    ok = ok and all(agent != "A4" for agent, _ in sol.pairs)
    assert report(3, "student-to-work assignment", ok)


# --------------------------------------------------------------- criterion 4


def test_criterion_4_mckp_budgets():
    ok = True
    # b = 15: top level for the first three pairs, mid level for the fourth
    inst15 = table5_mckp_instance(budget=15)
    for solver in (mckp_greedy, mckp_exact_dp):
        sol = solver(inst15)
        ok = ok and sol.chosen == {"A1V6:T3", "A2V10:T3", "A3V12:T3", "A5V1:T2"}
        ok = ok and sol.total_cost == 15
    # the baseline heuristic pick for budget 10 is feasible; the DP can only match or beat it
    inst10 = table5_mckp_instance(budget=10)
    by_id = {it.id: it for it in inst10.all_items()}
    reference = {"A1V6:T2", "A2V10:T3", "A5V1:T2"}
    ref_cost = sum((by_id[i].cost for i in reference), Fraction(0))
    ok = ok and ref_cost == 10
    betas = dict(
        zip(
            (it.id for it in inst10.all_items()),
            scalarize(inst10.frame, [it.value for it in inst10.all_items()]),
        )
    )
    ref_obj = sum(betas[i] for i in reference)
    ok = ok and mckp_exact_dp(inst10).objective >= ref_obj
    # regression pin: the tempting selection (T3, T3, T1, T2) costs 13, so at
    # budget 12 no solver may emit it, nor any other budget violation
    erratum = {"A1V6:T3", "A2V10:T3", "A3V12:T1", "A5V1:T2"}
    erratum_cost = sum((by_id[i].cost for i in erratum), Fraction(0))
    ok = ok and erratum_cost == 13
    for budget in range(0, 17):
        inst = table5_mckp_instance(budget=budget)
        for solver in (mckp_greedy, mckp_exact_dp):
            sol = solver(inst)
            ok = ok and sol.total_cost <= budget
            if budget == 12:
                ok = ok and sol.chosen != erratum
    assert report(4, "multiple-choice budgets 15/12/10", ok)


# --------------------------------------------------------------- criterion 5


def _random_knapsack(rng):
    items = tuple(
        Item(f"i{j}", vec(rng.randint(0, 9), rng.randint(0, 9)), rng.randint(1, 9))
        for j in range(10)
    )
    return KnapsackInstance(frame=equal_weight_frame(2), items=items, budget=20)


def _random_mckp(rng):
    groups = tuple(
        Group(
            f"g{i}",
            tuple(
                Item(f"g{i}i{j}", vec(rng.randint(0, 9)), rng.randint(0, 4))
                for j in range(rng.randint(1, 3))
            ),
        )
        for i in range(rng.randint(1, 4))
    )
    return MckpInstance(
        frame=equal_weight_frame(1), groups=groups, budget=rng.randint(0, 9)
    )


def _mckp_brute(inst):
    betas = dict(
        zip(
            (it.id for it in inst.all_items()),
            scalarize(inst.frame, [it.value for it in inst.all_items()]),
        )
    )
    best = Fraction(0)
    options = [[None, *g.items] for g in inst.groups]
    for combo in itertools.product(*options):
        picked = [it for it in combo if it is not None]
        cost = sum((it.cost for it in picked), Fraction(0))
        if cost <= inst.budget:
            best = max(best, sum((betas[it.id] for it in picked), Fraction(0)))
    return best


def _random_assignment(rng, n=5):
    return AssignmentInstance(
        agents=tuple(f"a{i}" for i in range(n)),
        positions=tuple(f"p{j}" for j in range(n)),
        cells=tuple(
            tuple(vec(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n))
            for _ in range(n)
        ),
        frame=equal_weight_frame(2),
    )


def _assign_brute(inst):
    """Independent enumeration of maximal assignments."""
    n = len(inst.agents)
    best = []
    for perm in itertools.permutations(range(n)):
        pairs = frozenset(
            (inst.agents[i], inst.positions[perm[i]]) for i in range(n)
        )
        total = [
            sum(col, Fraction(0))
            for col in zip(
                *(
                    inst.cells[inst.agents.index(a)][inst.positions.index(p)].values
                    for a, p in pairs
                )
            )
        ]
        best.append((pairs, tuple(total)))
    return best


def _random_flat_system(rng):
    parts = rng.randint(2, 4)
    leafs = []
    for p in range(parts):
        das = tuple(
            DesignAlternative(f"p{p}d{i}", rng.randint(1, 3))
            for i in range(rng.randint(1, 4))
        )
        leafs.append(MorphNode(f"p{p}", alternatives=das))
    compat = {}
    for i in range(parts):
        for j in range(i + 1, parts):
            for da_a in leafs[i].alternatives:
                for da_b in leafs[j].alternatives:
                    if rng.random() < 0.9:
                        compat[("root", da_a.id, da_b.id)] = rng.randint(0, 3)
    return MorphSystem(root=MorphNode("root", children=tuple(leafs)), compat=compat)


def _compose_brute(system):
    node = system.root
    pools = [[(c.id, da) for da in c.alternatives] for c in node.children]
    hi = system.compat_scale.hi
    levels = max(
        [hi] + [da.priority for c in node.children for da in c.alternatives]
    )
    feasible = []
    for combo in itertools.product(*pools):
        vals, zero = [], False
        for (_, a), (_, b) in itertools.combinations(combo, 2):
            v = system.compatibility("root", a.id, b.id)
            if v is not None:
                vals.append(v)
                zero = zero or v == 0
        if zero:
            continue
        counts = [0] * levels
        for _, da in combo:
            counts[da.priority - 1] += 1
        feasible.append(
            CompositeDecision(
                tuple((c, da.id) for c, da in combo),
                QualityVector(min(vals) if vals else hi, tuple(counts)),
            )
        )
    return {
        d
        for d in feasible
        if not any(n_dominates(o.quality, d.quality) for o in feasible if o != d)
    }


def _random_trajectory_spec(rng):
    stages = tuple(
        Stage(
            t + 1,
            tuple((f"s{t}_{i}", rng.randint(1, 3)) for i in range(rng.randint(1, 4))),
        )
        for t in range(3)
    )
    compat = {
        (a, b): rng.randint(0, 3)
        for t in range(2)
        for a, _ in stages[t].decisions
        for b, _ in stages[t + 1].decisions
    }
    return TrajectorySpec(stages=stages, compat=compat)


def _trajectory_brute(spec):
    prio = spec.priorities()
    levels = max(3, max(prio.values()))
    outs = []
    for combo in itertools.product(*(s.decisions for s in spec.stages)):
        path = tuple(d for d, _ in combo)
        w = min(spec.compat[p] for p in zip(path, path[1:]))
        counts = [0] * levels
        for d in path:
            counts[prio[d] - 1] += 1
        outs.append(Trajectory(path, QualityVector(w, tuple(counts))))
    return {
        t
        for t in outs
        if not any(n_dominates(o.quality, t.quality) for o in outs if o != t)
    }


def _random_cities(rng, n):
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    d = tuple(
        tuple(math.dist(pts[i], pts[j]) if i != j else 0 for j in range(n))
        for i in range(n)
    )
    return TspInstance(tuple(f"c{i}" for i in range(n)), d)


def test_criterion_5_oracle_equivalence():
    ok = True

    rng = random.Random(20100)
    hits = 0
    for _ in range(100):
        inst = _random_knapsack(rng)
        g, e = knapsack_greedy(inst), knapsack_exact(inst)
        ok = ok and g.total_cost <= inst.budget and e.objective >= g.objective
        if e.objective == 0 or g.objective >= Fraction(3, 4) * e.objective:
            hits += 1
    ok = ok and hits >= 95

    rng = random.Random(20101)
    for _ in range(100):
        inst = _random_mckp(rng)
        ok = ok and mckp_exact_dp(inst).objective == _mckp_brute(inst)

    rng = random.Random(20102)
    for _ in range(100):
        inst = _random_assignment(rng)
        entries = _assign_brute(inst)
        exact = assign_exact(inst)
        betas = scalarize(inst.frame, [v for row in inst.cells for v in row])
        best_obj = max(
            sum(
                betas[
                    inst.agents.index(a) * len(inst.positions) + inst.positions.index(p)
                ]
                for a, p in pairs
            )
            for pairs, _ in entries
        )
        ok = ok and exact.objective == best_obj
        front = {
            pairs
            for pairs, total in entries
            if not any(
                all(x >= y for x, y in zip(o, total))
                and any(x > y for x, y in zip(o, total))
                for _, o in entries
            )
        }
        ok = ok and {s.pairs for s in assign_pareto(inst)} == front

    rng = random.Random(20103)
    for _ in range(100):
        system = _random_flat_system(rng)
        expected = _compose_brute(system)
        if not expected:
            continue
        ok = ok and set(compose_node(system, "root")) == expected

    rng = random.Random(20104)
    for _ in range(100):
        spec = _random_trajectory_spec(rng)
        ok = ok and set(design_trajectory(spec)) == _trajectory_brute(spec)

    rng = random.Random(20105)
    close = 0
    for _ in range(100):
        inst = _random_cities(rng, 9)
        opt = tsp_brute_force(inst)
        two = tsp_two_opt(inst, tsp_nearest_neighbor(inst, "c0"))
        ok = ok and two.length >= opt.length - 1e-9
        if two.length <= 1.10 * opt.length + 1e-9:
            close += 1
    ok = ok and close >= 90

    assert report(5, "oracle equivalence sweeps", ok)


# --------------------------------------------------------------- criterion 6


def test_criterion_6_dominance_laws():
    ok = True
    rng = random.Random(20106)
    for _ in range(1000):
        a, b, c = (
            EstimateVector([rng.randint(0, 3) for _ in range(3)]) for _ in range(3)
        )
        ok = ok and not dominates(a, a)
        if dominates(a, b) and dominates(b, c):
            ok = ok and dominates(a, c)

    def random_quality():
        counts = [0, 0, 0]
        for _ in range(3):
            counts[rng.randint(0, 2)] += 1
        return QualityVector(rng.randint(0, 3), tuple(counts))

    for _ in range(1000):
        a, b, c = random_quality(), random_quality(), random_quality()
        ok = ok and not n_dominates(a, a)
        if n_dominates(a, b) and n_dominates(b, c):
            ok = ok and n_dominates(a, c)

    rng = random.Random(20107)
    for _ in range(50):
        n = rng.randint(1, 12)
        frame = equal_weight_frame(3)
        inst = RankingInstance(
            frame,
            tuple(
                (f"a{i}", vec(*[rng.randint(0, 5) for _ in range(3)]))
                for i in range(n)
            ),
        )
        res = rank_pareto_layers(inst)
        norm = oracle_normalize_estimates(frame, [e for _, e in inst.alternatives])
        front = {
            f"a{i}"
            for i in range(n)
            if not any(dominates(norm[j], norm[i]) for j in range(n) if j != i)
        }
        ok = ok and {a for a, p in res.priorities.items() if p == 1} == front
    assert report(6, "dominance laws and first layer", ok)


# --------------------------------------------------------------- criterion 7


def test_criterion_7_clustering():
    ok = True
    rng = random.Random(20108)
    for _ in range(50):
        n = rng.randint(2, 10)
        ids = tuple(f"x{i}" for i in range(n))
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.randint(1, 60)
        m = DissimilarityMatrix(ids, tuple(tuple(r) for r in d))
        dend = build_dendrogram(m, Linkage.SINGLE)
        in_tree, mst = {0}, []
        while len(in_tree) < n:
            w, j = min(
                (m.d[i][j], j) for i in in_tree for j in range(n) if j not in in_tree
            )
            mst.append(w)
            in_tree.add(j)
        ok = ok and sorted(mg.height for mg in dend.merges) == sorted(mst)
        for k in range(1, n + 1):
            blocks = cut_dendrogram(dend, k)
            flat = [x for b in blocks for x in b]
            ok = ok and len(blocks) == k
            ok = ok and sorted(flat) == sorted(ids) and len(set(flat)) == n
    assert report(7, "single-linkage MST equivalence and partitions", ok)


# --------------------------------------------------------------- criterion 8


def test_criterion_8_determinism_and_round_trip(capsys):
    from hmmdkit.cli import main
    from hmmdkit.probio import fixture_path
    from test_probio import FIXTURES, random_result

    ok = True
    for args in (
        ["synth", "--input", fixture_path("course_example.morph"), "--format", "json"],
        ["mckp", "--input", fixture_path("table5_mckp.mckp"), "--format", "text"],
        ["assign", "--input", fixture_path("table5_assign.assign"), "--format", "json"],
    ):
        outputs = set()
        for _ in range(2):
            code = main(list(args))
            out = capsys.readouterr().out
            ok = ok and code == 0
            outputs.add(out)
        ok = ok and len(outputs) == 1

    for name in FIXTURES:
        text = load_fixture(name)
        canonical = write_problem(parse_problem(text))
        ok = ok and canonical == text
        ok = ok and write_problem(parse_problem(canonical)) == canonical

    rng = random.Random(20109)
    for _ in range(100):
        result = random_result(rng)
        text = write_result(result, ResultFormat.STRUCTURED)
        ok = ok and parse_result(text) == result
        ok = ok and write_result(parse_result(text), ResultFormat.STRUCTURED) == text
    assert report(8, "determinism and round-trip", ok)
