import itertools
import random
from fractions import Fraction

import pytest

from conftest import ASSIGNED_PAIRS, pair_triple, table5_mckp_instance
from hmmdkit.core import (
    GuardExceeded,
    InfeasibleError,
    ValidationError,
)
from hmmdkit.criteria import equal_weight_frame, scalarize
from hmmdkit.exact import EstimateVector
from hmmdkit.knapsack import KnapsackInstance, knapsack_exact, knapsack_greedy
from hmmdkit.mckp import Group, GroupRule, MckpInstance, mckp_exact_dp, mckp_greedy
from hmmdkit.select import Item, _solution


def vec(*v):
    return EstimateVector(v)


def knapsack(items, budget, k=1):
    return KnapsackInstance(
        frame=equal_weight_frame(k),
        items=tuple(Item(i, vec(*val) if isinstance(val, tuple) else vec(val), c) for i, val, c in items),
        budget=budget,
    )


# ---------------------------------------------------------------- scalarize


def test_scalarize_preserves_single_criterion_order():
    frame = equal_weight_frame(1)
    b = scalarize(frame, [vec(2), vec(4)])
    assert b[1] > b[0]


def test_scalarize_componentwise_max_item_scores_one():
    frame = equal_weight_frame(2)
    b = scalarize(frame, [vec(1, 2), vec(4, 7), vec(0, 5)])
    assert b[1] == 1


def test_scalarize_rejects_bad_weights():
    frame = equal_weight_frame(2)
    with pytest.raises(ValidationError):
        scalarize(frame, [vec(1, 2)], weights=[0, 0])
    with pytest.raises(ValidationError):
        scalarize(frame, [vec(1, 2)], weights=[-1, 2])
    with pytest.raises(ValidationError):
        scalarize(frame, [vec(1, 2)], weights=[1])


def test_scalarize_assigned_pair_triples():
    # oracle: direct arithmetic on min-max-normalized triples, equal weights.
    # per-criterion ranges over these four triples are (3, 6, 5), so the
    # normalized order differs from the raw-sum order.
    frame = equal_weight_frame(3)
    triples = [pair_triple(s, w) for s, w in ASSIGNED_PAIRS]
    b = dict(zip([f"{s}{w}" for s, w in ASSIGNED_PAIRS], scalarize(frame, [vec(*t) for t in triples])))
    assert b == {
        "A1V6": Fraction(49, 90),
        "A2V10": Fraction(5, 9),
        "A3V12": Fraction(3, 5),
        "A5V1": Fraction(1, 3),
    }
    assert b["A3V12"] > b["A2V10"] > b["A1V6"] > b["A5V1"]


# ---------------------------------------------------------------- knapsack


def test_knapsack_zero_budget():
    inst = knapsack([("a", 5, 2), ("b", 3, 1)], budget=0)
    for solver in (knapsack_greedy, knapsack_exact):
        sol = solver(inst)
        assert sol.chosen == frozenset()
        assert sol.objective == 0
        assert sol.total_cost == 0


def test_knapsack_everything_fits():
    inst = knapsack([("a", 5, 2), ("b", 3, 1), ("c", 1, 4)], budget=10)
    assert knapsack_greedy(inst).chosen == {"a", "b", "c"}


def test_knapsack_exact_simple_choices():
    inst = knapsack([("solo", 5, 3)], budget=4)
    assert knapsack_exact(inst).chosen == {"solo"}
    inst2 = knapsack([("hi", 5, 4), ("lo", 3, 4)], budget=4)
    sol = knapsack_exact(inst2)
    assert sol.chosen == {"hi"}


def test_knapsack_exact_requires_integral_costs():
    inst = knapsack([("a", 5, Fraction(1, 2))], budget=4)
    with pytest.raises(ValidationError):
        knapsack_exact(inst)


def test_knapsack_exact_guard(monkeypatch):
    monkeypatch.setenv("HMMD_KIT_GUARD", "5")
    inst = knapsack([("a", 5, 4), ("b", 3, 4)], budget=4)
    with pytest.raises(GuardExceeded):
        knapsack_exact(inst)


def _random_knapsack(rng, n=10, k=2, budget=20):
    items = [
        (f"i{j}", tuple(rng.randint(0, 9) for _ in range(k)), rng.randint(1, 9))
        for j in range(n)
    ]
    return knapsack(items, budget=budget, k=k)


def test_knapsack_exact_equals_brute_force():
    rng = random.Random(47)
    for _ in range(15):
        inst = _random_knapsack(rng, n=12, budget=rng.randint(5, 30))
        betas = scalarize(inst.frame, [it.value for it in inst.items])
        best = Fraction(0)
        for mask in itertools.product([0, 1], repeat=12):
            cost = sum(it.cost for it, m in zip(inst.items, mask) if m)
            if cost <= inst.budget:
                val = sum(
                    (b for b, m in zip(betas, mask) if m), Fraction(0)
                )
                best = max(best, val)
        assert knapsack_exact(inst).objective == best


def test_knapsack_greedy_ratio_against_exact():
    rng = random.Random(53)
    good = 0
    for _ in range(100):
        inst = _random_knapsack(rng)
        g = knapsack_greedy(inst)
        e = knapsack_exact(inst)
        assert g.total_cost <= inst.budget
        assert e.objective >= g.objective
        if e.objective == 0 or g.objective >= Fraction(3, 4) * e.objective:
            good += 1
    assert good >= 95


def test_knapsack_solution_fields_consistent():
    inst = knapsack([("a", (5, 1), 2), ("b", (3, 4), 1)], budget=3, k=2)
    sol = knapsack_greedy(inst)
    assert sol.chosen == {"a", "b"}
    assert sol.total_cost == 3
    assert sol.objective_vector == vec(8, 5)


# ---------------------------------------------------------------- mckp


def test_mckp_single_group_picks_best_affordable():
    frame = equal_weight_frame(1)
    inst = MckpInstance(
        frame=frame,
        groups=(
            Group(
                "g",
                (
                    Item("T1", vec(1), 2),
                    Item("T2", vec(2), 3),
                    Item("T3", vec(3), 4),
                ),
            ),
        ),
        budget=4,
    )
    assert mckp_greedy(inst).chosen == {"T3"}
    assert mckp_exact_dp(inst).chosen == {"T3"}


def test_mckp_zero_budget_at_most_one():
    inst = table5_mckp_instance(budget=0)
    sol = mckp_greedy(inst)
    assert sol.chosen == frozenset()
    assert sol.total_cost == 0


def test_mckp_dp_requires_integral_costs():
    frame = equal_weight_frame(1)
    inst = MckpInstance(
        frame=frame,
        groups=(Group("g", (Item("a", vec(1), Fraction(3, 2)),)),),
        budget=4,
    )
    with pytest.raises(ValidationError):
        mckp_exact_dp(inst)


def test_mckp_exactly_one_infeasible():
    frame = equal_weight_frame(1)
    inst = MckpInstance(
        frame=frame,
        groups=(Group("g", (Item("a", vec(1), 5),)),),
        budget=4,
        group_rule=GroupRule.EXACTLY_ONE,
    )
    with pytest.raises(InfeasibleError):
        mckp_greedy(inst)
    with pytest.raises(InfeasibleError):
        mckp_exact_dp(inst)


def test_mckp_course_budget_15_selects_top_levels():
    inst = table5_mckp_instance(budget=15)
    sol = mckp_greedy(inst)
    assert sol.chosen == {"A1V6:T3", "A2V10:T3", "A3V12:T3", "A5V1:T2"}
    assert sol.total_cost == 15
    dp = mckp_exact_dp(inst)
    assert dp.chosen == sol.chosen
    assert dp.objective == sol.objective


def test_mckp_budget_10_dp_beats_reference_heuristic_selection():
    inst = table5_mckp_instance(budget=10)
    reference = {"A1V6:T2", "A2V10:T3", "A5V1:T2"}
    by_id = {it.id: it for it in inst.all_items()}
    ref_cost = sum(by_id[i].cost for i in reference)
    assert ref_cost == 10  # the baseline heuristic pick is feasible
    betas = dict(
        zip(
            (it.id for it in inst.all_items()),
            scalarize(inst.frame, [it.value for it in inst.all_items()]),
        )
    )
    ref_obj = sum(betas[i] for i in reference)
    dp = mckp_exact_dp(inst)
    assert dp.objective >= ref_obj
    assert dp.total_cost <= 10


def test_mckp_budget_12_output_is_feasible():
    # a selection of the three top levels plus a mid level costs 13 and
    # must never be produced for budget 12
    inst = table5_mckp_instance(budget=12)
    for solver in (mckp_greedy, mckp_exact_dp):
        sol = solver(inst)
        assert sol.total_cost <= 12


def test_mckp_dp_with_null_options_picks_groupwise_best():
    frame = equal_weight_frame(2)
    inst = MckpInstance(
        frame=frame,
        groups=(
            Group("g1", (Item("n1", vec(0, 0), 0), Item("a", vec(3, 3), 5), Item("b", vec(1, 1), 1))),
            Group("g2", (Item("n2", vec(0, 0), 0), Item("c", vec(2, 5), 7))),
        ),
        budget=1000,
    )
    sol = mckp_exact_dp(inst)
    assert {"a", "c"} <= sol.chosen


def _random_mckp(rng, n_groups=3, per_group=3, budget=6):
    frame = equal_weight_frame(2)
    groups = tuple(
        Group(
            f"g{i}",
            tuple(
                Item(f"g{i}i{j}", vec(rng.randint(0, 9), rng.randint(0, 9)), rng.randint(0, 4))
                for j in range(per_group)
            ),
        )
        for i in range(n_groups)
    )
    return MckpInstance(frame=frame, groups=groups, budget=budget)


def _mckp_brute_force(inst):
    betas = dict(
        zip(
            (it.id for it in inst.all_items()),
            scalarize(inst.frame, [it.value for it in inst.all_items()]),
        )
    )
    options = []
    for g in inst.groups:
        opts = list(g.items)
        if inst.group_rule is GroupRule.AT_MOST_ONE:
            opts.append(None)
        options.append(opts)
    best = None
    for combo in itertools.product(*options):
        picked = [it for it in combo if it is not None]
        cost = sum((it.cost for it in picked), Fraction(0))
        if cost <= inst.budget:
            val = sum((betas[it.id] for it in picked), Fraction(0))
            if best is None or val > best:
                best = val
    return best


def test_mckp_dp_equals_brute_force():
    rng = random.Random(59)
    for _ in range(60):
        inst = _random_mckp(rng, budget=rng.randint(0, 10))
        expected = _mckp_brute_force(inst)
        assert mckp_exact_dp(inst).objective == expected


def test_mckp_dp_equals_brute_force_exactly_one():
    rng = random.Random(61)
    for _ in range(40):
        inst = _random_mckp(rng, budget=rng.randint(2, 12))
        inst = MckpInstance(inst.frame, inst.groups, inst.budget, GroupRule.EXACTLY_ONE)
        expected = _mckp_brute_force(inst)
        if expected is None:
            with pytest.raises(InfeasibleError):
                mckp_exact_dp(inst)
        else:
            assert mckp_exact_dp(inst).objective == expected


def test_mckp_dp_never_below_greedy_and_always_feasible():
    rng = random.Random(67)
    for _ in range(80):
        inst = _random_mckp(
            rng, n_groups=rng.randint(1, 4), per_group=rng.randint(1, 4),
            budget=rng.randint(0, 12),
        )
        g = mckp_greedy(inst)
        e = mckp_exact_dp(inst)
        assert g.total_cost <= inst.budget
        assert e.total_cost <= inst.budget
        assert e.objective >= g.objective
        for g_ in inst.groups:
            ids = {it.id for it in g_.items}
            assert len(ids & g.chosen) <= 1
            assert len(ids & e.chosen) <= 1


def test_greedy_solvers_ignore_input_order():
    rng = random.Random(181)
    for _ in range(20):
        inst = _random_knapsack(rng, n=8, budget=rng.randint(4, 20))
        shuffled = list(inst.items)
        rng.shuffle(shuffled)
        inst2 = KnapsackInstance(inst.frame, tuple(shuffled), inst.budget)
        assert knapsack_greedy(inst).chosen == knapsack_greedy(inst2).chosen

        mc = _random_mckp(rng, n_groups=3, per_group=3, budget=rng.randint(2, 10))
        groups = list(mc.groups)
        rng.shuffle(groups)
        mc2 = MckpInstance(mc.frame, tuple(groups), mc.budget)
        assert mckp_greedy(mc).chosen == mckp_greedy(mc2).chosen


def test_mckp_guard(monkeypatch):
    # 4 groups x (budget 15 + 1) = 64 cells; the cost sum is 36
    inst = table5_mckp_instance(budget=15)
    monkeypatch.setenv("HMMD_KIT_GUARD", "3")
    with pytest.raises(GuardExceeded, match=r"^64 table cells exceed guard 3$"):
        mckp_exact_dp(inst)
    monkeypatch.setenv("HMMD_KIT_GUARD", "63")
    with pytest.raises(GuardExceeded, match=r"^64 table cells exceed guard 63$"):
        mckp_exact_dp(inst)
    monkeypatch.setenv("HMMD_KIT_GUARD", "64")
    assert mckp_exact_dp(inst).total_cost <= 15


# ------------------------------------------------------- Fraction DP oracles


def _fraction_knapsack(inst, weights=None):
    """The knapsack DP with one Fraction per cell."""
    betas = dict(
        zip(
            (it.id for it in inst.items),
            scalarize(inst.frame, [it.value for it in inst.items], weights),
        )
    )
    cap = min(int(inst.budget), sum(int(it.cost) for it in inst.items))
    chosen = {it.id for it in inst.items if it.cost == 0}
    priced = [it for it in inst.items if it.cost != 0]
    dp = [Fraction(0)] * (cap + 1)
    taken = [bytearray(cap + 1) for _ in priced]
    for idx, it in enumerate(priced):
        c, b = int(it.cost), betas[it.id]
        for w in range(cap, c - 1, -1):
            if dp[w - c] + b > dp[w]:
                dp[w] = dp[w - c] + b
                taken[idx][w] = 1
    w = cap
    for idx in range(len(priced) - 1, -1, -1):
        if taken[idx][w]:
            chosen.add(priced[idx].id)
            w -= int(priced[idx].cost)
    return _solution(inst.frame, inst.items, betas, chosen)


def _fraction_mckp(inst, weights=None):
    """The group-wise DP with one Fraction per cell, cells in the outer loop."""
    items = inst.all_items()
    betas = dict(
        zip((it.id for it in items), scalarize(inst.frame, [it.value for it in items], weights))
    )
    cap = min(int(inst.budget), sum(int(it.cost) for it in items))
    exactly = inst.group_rule is GroupRule.EXACTLY_ONE
    prev = [Fraction(0)] * (cap + 1)
    choice = []
    for g in inst.groups:
        row = [None] * (cap + 1)
        pick = [-2] * (cap + 1)
        for c in range(cap + 1):
            if not exactly and prev[c] is not None:
                row[c] = prev[c]
                pick[c] = -1
            for j, it in enumerate(g.items):
                ic = int(it.cost)
                if ic <= c and prev[c - ic] is not None:
                    cand = prev[c - ic] + betas[it.id]
                    if row[c] is None or cand > row[c]:
                        row[c] = cand
                        pick[c] = j
        prev = row
        choice.append(pick)
    best_c = None
    for c in range(cap + 1):
        if prev[c] is not None and (best_c is None or prev[c] > prev[best_c]):
            best_c = c
    if best_c is None:
        raise InfeasibleError(f"no exactly-one selection fits within budget {inst.budget}")
    chosen = set()
    c = best_c
    for gi in range(len(inst.groups) - 1, -1, -1):
        j = choice[gi][c]
        if j >= 0:
            it = inst.groups[gi].items[j]
            chosen.add(it.id)
            c -= int(it.cost)
    return _solution(inst.frame, items, betas, chosen)


def _fields(sol):
    return (sol.chosen, sol.objective, sol.total_cost, sol.objective_vector)


def _sweep_value(rng, k):
    return vec(*(
        Fraction(rng.randint(-9, 30), rng.choice([1, 2, 3, 7])) if rng.random() < 0.5
        else rng.randint(0, 4)
        for _ in range(k)
    ))


def _sweep_weights(rng, k):
    if rng.random() < 0.5:
        return None
    weights = [rng.choice([0, 0, 1, 2, Fraction(1, 3)]) for _ in range(k)]
    weights[rng.randrange(k)] = 1
    return weights


def test_knapsack_exact_equals_fraction_oracle_sweep():
    rng = random.Random(83)
    for _ in range(150):
        k = rng.randint(1, 4)
        items = tuple(
            Item(f"i{j}", _sweep_value(rng, k), rng.choice([0, 0, 1, 2, 3, 5, 8, 13]))
            for j in range(rng.randint(1, 14))
        )
        inst = KnapsackInstance(equal_weight_frame(k), items, rng.randint(0, 40))
        weights = _sweep_weights(rng, k)
        assert _fields(knapsack_exact(inst, weights)) == _fields(_fraction_knapsack(inst, weights))


def test_mckp_exact_dp_equals_fraction_oracle_sweep():
    rng = random.Random(89)
    infeasible = 0
    for t in range(200):
        k = rng.randint(1, 4)
        groups = tuple(
            Group(f"g{g}", tuple(
                Item(f"g{g}i{j}", _sweep_value(rng, k), rng.choice([0, 1, 2, 3, 5, 8]))
                for j in range(rng.randint(1, 4))
            ))
            for g in range(rng.randint(1, 6))
        )
        rule = (GroupRule.AT_MOST_ONE, GroupRule.EXACTLY_ONE)[t % 2]
        inst = MckpInstance(equal_weight_frame(k), groups, rng.randint(0, 25), rule)
        weights = _sweep_weights(rng, k)
        try:
            expected = _fields(_fraction_mckp(inst, weights))
        except InfeasibleError as exc:
            infeasible += 1
            with pytest.raises(InfeasibleError, match=str(exc)):
                mckp_exact_dp(inst, weights)
        else:
            assert _fields(mckp_exact_dp(inst, weights)) == expected
    assert infeasible > 0


def test_knapsack_guard_counts_table_cells(monkeypatch):
    # 50 priced items x (budget 100 + 1) = 5,050 cells; the cost sum is only 100
    inst = knapsack([(f"i{j}", j % 7, 2) for j in range(50)] + [("free", 3, 0)], budget=100)
    monkeypatch.setenv("HMMD_KIT_GUARD", "100")
    with pytest.raises(GuardExceeded, match=r"^5050 table cells exceed guard 100$"):
        knapsack_exact(inst)
    monkeypatch.setenv("HMMD_KIT_GUARD", "5049")
    with pytest.raises(GuardExceeded):
        knapsack_exact(inst)
    monkeypatch.setenv("HMMD_KIT_GUARD", "5050")
    assert _fields(knapsack_exact(inst)) == _fields(_fraction_knapsack(inst))


def test_knapsack_default_guard_is_ten_million_cells(monkeypatch):
    monkeypatch.delenv("HMMD_KIT_GUARD", raising=False)
    # 2 x (10^6 + 1) cells: over the old 10^6 default, within 10^7
    inst = knapsack([("a", 3, 600_000), ("b", 5, 600_000)], budget=10**6)
    assert knapsack_exact(inst).chosen == {"b"}
    wide = knapsack([(f"i{j}", 1, 200_000) for j in range(10)], budget=10**6)
    with pytest.raises(
        GuardExceeded, match=r"^10000010 table cells exceed guard 10000000$"
    ):
        knapsack_exact(wide)
