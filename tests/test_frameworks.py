import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    ASSIGNED_PAIRS,
    CORRESPONDENCE,
    TEACHING_COSTS,
    WORKS,
    level_value,
    replace,
)
from hmmdkit.assign import AssignmentInstance, assign_greedy
from hmmdkit.cluster import DissimilarityMatrix, Linkage
from hmmdkit.core import (
    DEFAULT_COMPAT_SCALE,
    Best,
    GuardExceeded,
    OrdinalScale,
    ValidationError,
)
from hmmdkit.criteria import equal_weight_frame
from hmmdkit.exact import EstimateVector
from hmmdkit.improve import ImprovementPart, ImprovementSpec, plan_improvement
from hmmdkit.integrate import IntegrationNode, check_tables_total, evaluate_integration_tree
from hmmdkit.mckp import Group, MckpInstance, mckp_exact_dp, mckp_greedy
from hmmdkit.morph import QualityVector, n_dominates
from hmmdkit.pipeline import PairActions, ThreeSetSpec, run_three_set_pipeline
from hmmdkit.select import Item
from hmmdkit.trajectory import Stage, Trajectory, TrajectorySpec, design_trajectory
from test_probio import problem_text

SCALE13 = OrdinalScale(1, 3, Best.HIGH)


def vec(*v):
    return EstimateVector(v)


def zero_matrix(ids):
    n = len(ids)
    return DissimilarityMatrix(tuple(ids), tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def distinct_matrix(rng, ids):
    n = len(ids)
    d = [[0] * n for _ in range(n)]
    weights = rng.sample(range(1, 500), n * (n - 1) // 2)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = weights[k]
            k += 1
    return DissimilarityMatrix(tuple(ids), tuple(tuple(r) for r in d))


# ------------------------------------------------------------------ pipeline


def reference_pipeline_spec(budget):
    set1 = ["A1", "A2", "A3", "A5"]
    # actions exist for every (student, work) pair, not just the matched ones
    all_actions = tuple(
        PairActions(
            s,
            w,
            tuple(
                Item(t, vec(level_value(s, w, t)), cost)
                for t, cost in TEACHING_COSTS.items()
            ),
        )
        for s in set1
        for w in WORKS
    )
    return ThreeSetSpec(
        set1=zero_matrix(set1),
        set2=zero_matrix(WORKS),
        k1=len(set1),
        k2=len(WORKS),
        frame=equal_weight_frame(3),
        correspondence=tuple(
            tuple(vec(*CORRESPONDENCE[s][WORKS.index(w)]) for w in WORKS)
            for s in set1
        ),
        action_frame=equal_weight_frame(1),
        actions=all_actions,
        budget=budget,
    )


def test_pipeline_reduces_to_reference_two_stage_example():
    report = run_three_set_pipeline(reference_pipeline_spec(budget=15))
    assert report.clusters1 == (("A1",), ("A2",), ("A3",), ("A5",))
    assert report.clusters2 == (("V1",), ("V10",), ("V12",), ("V6",))
    matched = {
        (report.clusters1[i][0], report.clusters2[j][0])
        for i, j in report.assignment
    }
    assert matched == set(ASSIGNED_PAIRS)
    chosen_levels = {(e1, e2): act for e1, e2, act, _ in report.selected_actions}
    assert chosen_levels == {
        ("A1", "V6"): "T3",
        ("A2", "V10"): "T3",
        ("A3", "V12"): "T3",
        ("A5", "V1"): "T2",
    }
    assert report.total_cost == 15


def test_pipeline_single_pair_takes_affordable_action():
    spec = ThreeSetSpec(
        set1=zero_matrix(["e"]),
        set2=zero_matrix(["f"]),
        k1=1,
        k2=1,
        frame=equal_weight_frame(1),
        correspondence=((vec(1),),),
        action_frame=equal_weight_frame(1),
        actions=(PairActions("e", "f", (Item("act", vec(5), 3),)),),
        budget=3,
    )
    report = run_three_set_pipeline(spec)
    assert report.assignment == ((0, 0),)
    assert [a[:3] for a in report.selected_actions] == [("e", "f", "act")]
    assert report.total_cost == 3


def test_pipeline_unaffordable_action_is_skipped():
    spec = ThreeSetSpec(
        set1=zero_matrix(["e"]),
        set2=zero_matrix(["f"]),
        k1=1,
        k2=1,
        frame=equal_weight_frame(1),
        correspondence=((vec(1),),),
        action_frame=equal_weight_frame(1),
        actions=(PairActions("e", "f", (Item("act", vec(5), 3),)),),
        budget=2,
    )
    report = run_three_set_pipeline(spec)
    assert report.selected_actions == ()
    assert report.total_cost == 0


def test_pipeline_matches_manual_stage_chaining():
    rng = random.Random(157)
    for _ in range(10):
        n = 6
        ids1 = [f"e{i}" for i in range(n)]
        ids2 = [f"f{j}" for j in range(n)]
        corr = tuple(
            tuple(vec(rng.randint(0, 9), rng.randint(0, 9)) for _ in ids2)
            for _ in ids1
        )
        actions = tuple(
            PairActions(
                e1,
                e2,
                tuple(
                    Item(f"t{k}", vec(rng.randint(0, 9)), rng.randint(1, 4))
                    for k in range(3)
                ),
            )
            for e1 in ids1
            for e2 in ids2
        )
        budget = rng.randint(4, 20)
        spec = ThreeSetSpec(
            set1=zero_matrix(ids1),
            set2=zero_matrix(ids2),
            k1=n,
            k2=n,
            frame=equal_weight_frame(2),
            correspondence=corr,
            action_frame=equal_weight_frame(1),
            actions=actions,
            budget=budget,
        )
        report = run_three_set_pipeline(spec)

        # oracle: chain the stages by hand on singleton clusters
        inst = AssignmentInstance(
            agents=tuple(ids1),
            positions=tuple(ids2),
            cells=corr,
            frame=spec.frame,
        )
        matching = assign_greedy(inst)
        matched = {
            (report.clusters1[i][0], report.clusters2[j][0])
            for i, j in report.assignment
        }
        assert matched == matching.pairs
        by_pair = {(pa.element1, pa.element2): pa for pa in actions}
        groups = tuple(
            Group(
                f"{e1}::{e2}",
                tuple(
                    Item(f"{e1}::{e2}::{it.id}", it.value, it.cost)
                    for it in by_pair[(e1, e2)].items
                ),
            )
            for e1, e2 in sorted(matching.pairs)
        )
        manual = mckp_exact_dp(
            MckpInstance(frame=spec.action_frame, groups=groups, budget=budget)
        )
        assert report.total_cost == manual.total_cost
        assert report.objective == manual.objective


def reference_action_stage(spec, report):
    """The pipeline's action stage as it was before it went through
    plan_improvement: tag each action e1::e2::id, build one group per
    matched pair and solve the MCKP by hand, on the report's own clusters
    and assignment."""
    by_pair = {(pa.element1, pa.element2): pa for pa in spec.actions}
    groups = []
    item_origin = {}
    for i, j in report.assignment:
        for e1 in report.clusters1[i]:
            for e2 in report.clusters2[j]:
                pa = by_pair.get((e1, e2))
                if pa is None:
                    continue
                items = tuple(Item(f"{e1}::{e2}::{it.id}", it.value, it.cost) for it in pa.items)
                for it, orig in zip(items, pa.items):
                    item_origin[it.id] = (e1, e2, orig.id)
                groups.append(Group(f"{e1}::{e2}", items))
    if not groups:
        return replace(
            report, selected_actions=(), total_cost=Fraction(0), objective=Fraction(0), mckp_method="none"
        )
    inst = MckpInstance(frame=spec.action_frame, groups=tuple(groups), budget=spec.budget)
    integral = inst.budget.denominator == 1 and all(it.cost.denominator == 1 for it in inst.all_items())
    solution, method = None, "greedy"
    if integral:
        try:
            solution, method = mckp_exact_dp(inst), "exact_dp"
        except GuardExceeded:
            pass
    if solution is None:
        solution = mckp_greedy(inst)
    cost_of = {it.id: it.cost for it in inst.all_items()}
    return replace(
        report,
        selected_actions=tuple(sorted((*item_origin[i], cost_of[i]) for i in solution.chosen)),
        total_cost=solution.total_cost,
        objective=solution.objective,
        mckp_method=method,
    )


def random_three_set_spec(rng):
    ids1 = [f"e{i}" for i in range(rng.randint(2, 5))]
    ids2 = [f"f{j}" for j in range(rng.randint(2, 5))]
    k = rng.randint(1, 2)
    pairs = [(e1, e2) for e1 in ids1 for e2 in ids2]
    with_actions = rng.sample(pairs, rng.randint(0, len(pairs)))  # some pairs have none
    fractional = rng.random() < 0.2
    actions = tuple(
        PairActions(
            e1,
            e2,
            tuple(
                Item(f"t{a}", vec(*(rng.randint(0, 9) for _ in range(k))), rng.randint(0, 5))
                for a in range(rng.randint(1, 3))
            )
            + ((Item("half", vec(*(rng.randint(0, 9) for _ in range(k))), Fraction(3, 2)),) if fractional else ()),
        )
        for e1, e2 in with_actions
    )
    return ThreeSetSpec(
        set1=distinct_matrix(rng, ids1),
        set2=distinct_matrix(rng, ids2),
        k1=rng.randint(1, len(ids1)),
        k2=rng.randint(1, len(ids2)),
        frame=equal_weight_frame(2),
        correspondence=tuple(
            tuple(vec(rng.randint(0, 9), rng.randint(0, 9)) for _ in ids2) for _ in ids1
        ),
        action_frame=equal_weight_frame(k),
        actions=actions,
        budget=rng.randint(0, 12),
    )


def test_pipeline_action_stage_equals_the_hand_built_mckp(monkeypatch):
    rng = random.Random(191)
    methods = Counter()
    for case in range(150):
        spec = random_three_set_spec(rng)
        linkage = (Linkage.SINGLE, Linkage.COMPLETE)[case % 2]
        guard = case % 5 == 0  # a table guard of 2 leaves only the smallest tables exact
        if guard:
            monkeypatch.setenv("HMMD_KIT_GUARD", "2")
        report = run_three_set_pipeline(spec, linkage)
        assert report == reference_action_stage(spec, report)
        monkeypatch.delenv("HMMD_KIT_GUARD", raising=False)
        methods[report.mckp_method, guard] += 1
    # exact on integral data, greedy on fractional data and under a low guard,
    # "none" when no matched pair has actions
    assert {("exact_dp", False), ("greedy", False), ("greedy", True), ("none", False)} <= set(methods)


def test_pair_actions_need_unique_nonempty_items():
    with pytest.raises(ValidationError, match=r"pair \('e', 'f'\) has no actions"):
        PairActions("e", "f", ())
    with pytest.raises(ValidationError, match=r"pair \('e', 'f'\): duplicate action id 't'"):
        PairActions("e", "f", (Item("t", vec(1), 1), Item("t", vec(2), 1)))


# ---------------------------------------------------------------- trajectory


def test_single_decision_per_stage_unique_trajectory():
    spec = TrajectorySpec(
        stages=(
            Stage(1, (("s1", 1),)),
            Stage(2, (("s2", 2),)),
        ),
        compat={("s1", "s2"): 2},
    )
    out = design_trajectory(spec)
    assert len(out) == 1
    assert out[0].path == ("s1", "s2")
    assert out[0].quality == QualityVector(2, (1, 1, 0))


def test_three_stage_shape_accepts_reference_path():
    stages = (
        Stage(1, tuple((f"s1_{i}", 1) for i in range(1, 4))),
        Stage(2, tuple((f"s2_{i}", 1) for i in range(1, 5))),
        Stage(3, tuple((f"s3_{i}", 1) for i in range(1, 5))),
    )
    compat = {}
    for a, _ in stages[0].decisions:
        for b, _ in stages[1].decisions:
            compat[(a, b)] = 3
    for b, _ in stages[1].decisions:
        for c, _ in stages[2].decisions:
            compat[(b, c)] = 3
    spec = TrajectorySpec(stages=stages, compat=compat)
    out = design_trajectory(spec)
    assert ("s1_1", "s2_4", "s3_1") in {t.path for t in out}


def test_single_stage_trajectory_has_best_compatibility():
    spec = TrajectorySpec(
        stages=(Stage(1, (("only", 2),)),),
        compat={},
    )
    out = design_trajectory(spec)
    assert len(out) == 1
    assert out[0].quality == QualityVector(3, (0, 1, 0))


def test_trajectory_missing_adjacency_entry():
    spec = TrajectorySpec(
        stages=(Stage(1, (("a", 1),)), Stage(2, (("b", 1),))),
        compat={},
    )
    with pytest.raises(ValidationError):
        design_trajectory(spec)


def test_stage_time_stays_an_int_and_is_exact_otherwise():
    from hmmdkit.probio import parse_problem, write_problem

    # an int time needs no Fraction, so a trajectory run of an integer-only
    # file never loads the exact-number layer; equal, same hash, same bytes
    stage = Stage(3, (("a", 1),))
    assert stage.time.__class__ is int and stage == Stage(Fraction(3), (("a", 1),))
    assert hash(stage) == hash(Stage(Fraction(3), (("a", 1),)))
    for time in ("1/2", 0.5, Fraction(1, 2)):
        assert Stage(time, (("a", 1),)).time.__class__ is Fraction
        assert Stage(time, (("a", 1),)).time == Fraction(1, 2)
    with pytest.raises(ValidationError, match="expected a number, got True"):
        Stage(True, (("a", 1),))
    text = write_problem(parse_problem(problem_text("trajectory", {
        "stages": [{"time": 3, "decisions": [{"id": "a", "priority": 1}]},
                   {"time": "1/2", "decisions": [{"id": "b", "priority": 1}]}],
        "compat": [{"from": "a", "to": "b", "value": 2}],
    })))
    parsed = parse_problem(text)
    times = [s.time for s in parsed.payload.spec.stages]
    assert times == [3, Fraction(1, 2)] and times[0].__class__ is int
    exact = replace(parsed, payload=replace(parsed.payload, spec=TrajectorySpec(
        [Stage(Fraction(s.time), s.decisions) for s in parsed.payload.spec.stages], parsed.payload.spec.compat)))
    assert write_problem(exact) == write_problem(parsed) == text
    assert '"time": 3\n' in text and '"time": "0.5"\n' in text


def test_trajectory_guard(monkeypatch):
    stages = tuple(
        Stage(t, tuple((f"s{t}_{i}", 1) for i in range(4))) for t in range(3)
    )
    compat = {
        (a, b): 3
        for t in range(2)
        for a, _ in stages[t].decisions
        for b, _ in stages[t + 1].decisions
    }
    spec = TrajectorySpec(stages=stages, compat=compat)
    monkeypatch.setenv("HMMD_KIT_GUARD", "10")
    with pytest.raises(GuardExceeded):
        design_trajectory(spec)


def random_trajectory_spec(rng, all_pairs=False):
    stages = []
    for t in range(3):
        stages.append(
            Stage(
                t + 1,
                tuple(
                    (f"s{t}_{i}", rng.randint(1, 3))
                    for i in range(rng.randint(1, 4))
                ),
            )
        )
    stages = tuple(stages)
    compat = {}
    pairs = itertools.combinations(range(3), 2) if all_pairs else [(0, 1), (1, 2)]
    for ta, tb in pairs:
        for a, _ in stages[ta].decisions:
            for b, _ in stages[tb].decisions:
                compat[(a, b)] = rng.randint(0, 3)
    return TrajectorySpec(stages=stages, compat=compat)


def _brute_trajectories(spec, all_pairs):
    prio = spec.priorities()
    levels = max(3, max(prio.values()))
    out = []
    for combo in itertools.product(*(s.decisions for s in spec.stages)):
        path = tuple(d for d, _ in combo)
        if all_pairs:
            pairs = list(itertools.combinations(path, 2))
        else:
            pairs = list(zip(path, path[1:]))
        w = min((spec.compat[p] for p in pairs), default=DEFAULT_COMPAT_SCALE.hi)
        counts = [0] * levels
        for d in path:
            counts[prio[d] - 1] += 1
        out.append(Trajectory(path, QualityVector(w, tuple(counts))))
    front = [
        t
        for t in out
        if not any(n_dominates(o.quality, t.quality) for o in out if o != t)
    ]
    # canonical order: descending w, descending cumulative counts, then path
    return sorted(
        front,
        key=lambda t: (-t.quality.w, tuple(-c for c in t.quality.cumulative()), t.path),
    )


@pytest.mark.parametrize("all_pairs", [False, True])
def test_trajectory_front_equals_brute_force(all_pairs):
    rng = random.Random(163)
    for _ in range(40):
        spec = random_trajectory_spec(rng, all_pairs=all_pairs)
        got = design_trajectory(spec, all_pairs)
        expected = _brute_trajectories(spec, all_pairs)
        assert set(got) == set(expected)
        assert got == expected


# ---------------------------------------------------------- integration tree


def leaf(nid, est, scale=SCALE13):
    return IntegrationNode(nid, scale, estimate=est)


def test_single_leaf_evaluates_to_itself():
    result = evaluate_integration_tree(leaf("x", 2))
    assert result.root_estimate == 2
    assert result.trace == {"x": 2}


def test_binary_max_table():
    table = {
        (a, b): max(a, b)
        for a in range(1, 4)
        for b in range(1, 4)
    }
    tree = IntegrationNode(
        "root", SCALE13, children=(leaf("a", 1), leaf("b", 2)), table=table
    )
    check_tables_total(tree)
    result = evaluate_integration_tree(tree)
    assert result.root_estimate == 2
    assert result.trace == {"a": 1, "b": 2, "root": 2}


def test_missing_table_entry_names_node_and_tuple():
    tree = IntegrationNode(
        "combiner",
        SCALE13,
        children=(leaf("a", 1), leaf("b", 2)),
        table={(1, 1): 1},
    )
    with pytest.raises(ValidationError, match=r"combiner.*\(1, 2\)"):
        evaluate_integration_tree(tree)
    with pytest.raises(ValidationError):
        check_tables_total(tree)


def test_check_tables_total_rejects_duplicate_ids():
    table = {(a, b): max(a, b) for a in range(1, 4) for b in range(1, 4)}
    inner = IntegrationNode("x", SCALE13, children=(leaf("a", 1), leaf("b", 2)), table=table)
    tree = IntegrationNode("root", SCALE13, children=(inner, leaf("x", 3)), table=table)
    with pytest.raises(ValidationError, match=r"^duplicate node id 'x'$"):
        check_tables_total(tree)


def test_leaf_estimate_out_of_scale():
    with pytest.raises(ValidationError):
        leaf("x", 4)


def test_sibling_permutation_with_permuted_tables_is_neutral():
    rng = random.Random(167)
    for _ in range(20):
        table = {
            (a, b): rng.randint(1, 3) for a in range(1, 4) for b in range(1, 4)
        }
        ea, eb = rng.randint(1, 3), rng.randint(1, 3)
        t1 = IntegrationNode(
            "r", SCALE13, children=(leaf("a", ea), leaf("b", eb)), table=table
        )
        swapped = {(b, a): v for (a, b), v in table.items()}
        t2 = IntegrationNode(
            "r", SCALE13, children=(leaf("b", eb), leaf("a", ea)), table=swapped
        )
        assert (
            evaluate_integration_tree(t1).root_estimate
            == evaluate_integration_tree(t2).root_estimate
        )


def test_two_level_tree():
    table = {(a, b): min(a, b) for a in range(1, 4) for b in range(1, 4)}
    inner = IntegrationNode(
        "inner", SCALE13, children=(leaf("a", 3), leaf("b", 2)), table=table
    )
    root = IntegrationNode(
        "root", SCALE13, children=(inner, leaf("c", 3)), table=table
    )
    result = evaluate_integration_tree(root)
    assert result.trace == {"a": 3, "b": 2, "inner": 2, "c": 3, "root": 2}


def parent_evaluate_integration_tree(tree):
    """evaluate_integration_tree before it ran on the shared pre-order: a
    recursive walk with its own duplicate-id set, evaluating in post-order."""
    trace = {}
    seen = set()

    def walk(node):
        if node.id in seen:
            raise ValidationError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        if not node.children:
            trace[node.id] = node.estimate
            return node.estimate
        inputs = tuple(walk(c) for c in node.children)
        if inputs not in node.table:
            raise ValidationError(
                f"node {node.id!r}: no table entry for child estimates {inputs}"
            )
        trace[node.id] = node.table[inputs]
        return node.table[inputs]

    return walk(tree), trace


def parent_check_tables_total(tree):
    """check_tables_total before the shared pre-order: the duplicate-id and
    totality checks interleaved in one recursive walk."""
    seen = set()

    def walk(node):
        if node.id in seen:
            raise ValidationError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        if not node.children:
            return
        ranges = [range(c.scale.lo, c.scale.hi + 1) for c in node.children]
        for key in itertools.product(*ranges):
            if key not in node.table:
                raise ValidationError(f"node {node.id!r}: table misses child estimates {key}")
        for c in node.children:
            walk(c)

    walk(tree)


def error_of(call, *args):
    try:
        call(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def random_integration_tree(rng, ids, depth=0):
    """Scales of 2 or 3 levels, one to three children, tables that miss
    about one key in four and ids that repeat about one time in forty."""
    nid = rng.choice(ids) if ids and rng.random() < 1 / 40 else f"n{len(ids)}"
    ids.append(nid)
    scale = OrdinalScale(1, rng.choice((2, 3)), Best.HIGH)
    if depth == 3 or rng.random() < 0.35:
        return IntegrationNode(nid, scale, estimate=rng.randint(1, scale.hi))
    children = tuple(random_integration_tree(rng, ids, depth + 1) for _ in range(rng.randint(1, 3)))
    ranges = [range(c.scale.lo, c.scale.hi + 1) for c in children]
    table = {
        key: rng.randint(1, scale.hi) for key in itertools.product(*ranges) if rng.random() >= 1 / 4
    }
    return IntegrationNode(nid, scale, children=children, table=table)


def test_integration_tree_matches_the_recursive_walks():
    # the pre-order reports a repeated id before any table error; with
    # unique ids, evaluation stops at the first node in reversed pre-order
    # whose own lookup fails, where the recursive walk stopped at the
    # first in post-order
    rng = random.Random(229)
    outcomes = Counter()
    for _ in range(600):
        ids = []
        tree = random_integration_tree(rng, ids)
        nodes, stack = [], [tree]
        while stack:
            nodes.append(stack.pop())
            stack.extend(reversed(nodes[-1].children))
        repeated = next((x for i, x in enumerate(ids) if x in ids[:i]), None)
        got = error_of(evaluate_integration_tree, tree)
        if repeated is not None:
            assert error_of(parent_evaluate_integration_tree, tree) is not None
            assert got == error_of(check_tables_total, tree) == f"duplicate node id {repeated!r}"
            outcomes["duplicate"] += 1
            continue
        assert error_of(check_tables_total, tree) == error_of(parent_check_tables_total, tree)
        want = error_of(parent_evaluate_integration_tree, tree)
        if want is None:
            result = evaluate_integration_tree(tree)
            assert (result.root_estimate, result.trace) == parent_evaluate_integration_tree(tree)
            outcomes["evaluated"] += 1
            continue
        own = [
            e for n in reversed(nodes)
            if (e := error_of(parent_evaluate_integration_tree, n)) and e.startswith(f"node {n.id!r}:")
        ]
        assert got == own[0]
        outcomes["same error" if got == want else "other failing node"] += 1
    assert min(outcomes.values()) >= 10 and len(outcomes) == 4, outcomes


# ---------------------------------------------------------------- improvement


def improvement_spec(parts, budget, k=1):
    return ImprovementSpec(
        frame=equal_weight_frame(k),
        parts=tuple(
            ImprovementPart(
                pid,
                tuple(Item(aid, vec(*val) if isinstance(val, tuple) else vec(val), c) for aid, val, c in actions),
            )
            for pid, actions in parts
        ),
        budget=budget,
    )


def test_zero_budget_selects_nothing():
    spec = improvement_spec(
        [("p1", [("a", 5, 2)]), ("p2", [("b", 3, 1)])], budget=0
    )
    plan = plan_improvement(spec)
    assert plan.by_part == {"p1": None, "p2": None}
    assert plan.solution.total_cost == 0


def test_single_part_prefers_higher_effect():
    spec = improvement_spec([("p", [("small", 2, 1), ("big", 9, 1)])], budget=1)
    plan = plan_improvement(spec)
    assert plan.by_part == {"p": "big"}


def test_improvement_equals_brute_force():
    rng = random.Random(173)
    for _ in range(25):
        parts = [
            (
                f"p{i}",
                [
                    (f"a{i}{j}", (rng.randint(0, 9), rng.randint(0, 9)), rng.randint(1, 4))
                    for j in range(3)
                ],
            )
            for i in range(4)
        ]
        spec = improvement_spec(parts, budget=10, k=2)
        plan = plan_improvement(spec)
        assert plan.method == "exact_dp"
        # brute force over one-or-none action per part
        items = {
            f"{pid}::{aid}": (cost, (pid, aid))
            for pid, actions in parts
            for aid, _, cost in actions
        }
        inst_groups = []
        from hmmdkit.criteria import scalarize

        flat = [
            Item(f"{pid}::{aid}", vec(*val), cost)
            for pid, actions in parts
            for aid, val, cost in actions
        ]
        betas = dict(
            zip((it.id for it in flat), scalarize(spec.frame, [it.value for it in flat]))
        )
        best = Fraction(0)
        options = [[None] + [f"{pid}::{aid}" for aid, _, _ in actions] for pid, actions in parts]
        for combo in itertools.product(*options):
            chosen = [c for c in combo if c]
            cost = sum(items[c][0] for c in chosen)
            if cost <= 10:
                val = sum((betas[c] for c in chosen), Fraction(0))
                best = max(best, val)
        assert plan.solution.objective == best
        chosen_parts = [p for p, a in plan.by_part.items() if a]
        assert len(chosen_parts) == len(set(chosen_parts))


# ------------------------------------------------- exact-or-greedy MCKP choice


def choice_pipeline_spec(cost):
    # one matched pair, one action group: an integral cost 2 gives a table of
    # 1 x (min(3, 2) + 1) = 3 cells
    return ThreeSetSpec(
        set1=zero_matrix(["e"]),
        set2=zero_matrix(["f"]),
        k1=1,
        k2=1,
        frame=equal_weight_frame(1),
        correspondence=((vec(1),),),
        action_frame=equal_weight_frame(1),
        actions=(PairActions("e", "f", (Item("act", vec(5), cost),)),),
        budget=3,
    )


def choice_improvement_spec(cost):
    # two parts: an integral cost 2 gives a table of 2 x (min(3, 1 + 2) + 1) = 8 cells
    return improvement_spec([("p1", [("a", 5, 1)]), ("p2", [("b", 3, cost)])], budget=3)


@pytest.mark.parametrize(
    "cost, guard, pipeline_method, improve_method",
    [
        (2, None, "exact_dp", "exact_dp"),
        (Fraction(3, 2), None, "greedy", "greedy"),
        (2, "8", "exact_dp", "exact_dp"),
        (2, "3", "exact_dp", "greedy"),
        (2, "2", "greedy", "greedy"),
    ],
)
def test_mckp_stage_picks_exact_or_greedy(
    monkeypatch, cost, guard, pipeline_method, improve_method
):
    if guard is not None:
        monkeypatch.setenv("HMMD_KIT_GUARD", guard)
    assert run_three_set_pipeline(choice_pipeline_spec(cost)).mckp_method == pipeline_method
    assert plan_improvement(choice_improvement_spec(cost)).method == improve_method


@pytest.mark.parametrize("raw", ["0", "abc"])
def test_mckp_stage_rejects_a_bad_guard_on_integral_data(monkeypatch, raw):
    monkeypatch.setenv("HMMD_KIT_GUARD", raw)
    with pytest.raises(ValidationError, match="HMMD_KIT_GUARD"):
        run_three_set_pipeline(choice_pipeline_spec(2))
    with pytest.raises(ValidationError, match="HMMD_KIT_GUARD"):
        plan_improvement(choice_improvement_spec(2))
