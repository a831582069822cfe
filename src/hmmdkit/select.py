"""Multicriteria knapsack and multiple-choice knapsack solvers.

Vector-valued items are reduced to scalar values by ``criteria.scalarize``
(min-max normalization over the instance's item set, then a weighted
sum; re-exported here); greedy heuristics come paired with exact
dynamic-programming oracles for integral data.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .core import (
    EstimateVector,
    GuardExceeded,
    InfeasibleError,
    Number,
    OracleError,
    ValidationError,
    check_guard,
    check_unique,
    frozen,
)
from .criteria import CriteriaFrame, as_ints, check_lengths, nonnegative, scalarize, shapes, vector_sum

#: DP table cells of knapsack_exact and mckp_exact_dp
TABLE_GUARD = 10**7


@frozen
class Item:
    id: str
    value: EstimateVector
    cost: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost", nonnegative(self.cost, "item {!r}: cost", self.id))


@frozen
class KnapsackInstance:
    frame: CriteriaFrame
    items: tuple[Item, ...]
    budget: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget"))
        check_unique([it.id for it in self.items], "duplicate item id")
        check_lengths(self.frame, ((it.value, "item {!r}", it.id) for it in self.items))


class GroupRule(Enum):
    AT_MOST_ONE = "at_most_one"
    EXACTLY_ONE = "exactly_one"


@frozen
class Group:
    id: str
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValidationError(f"group {self.id!r} has no items")


@frozen
class MckpInstance:
    frame: CriteriaFrame
    groups: tuple[Group, ...]
    budget: Fraction
    group_rule: GroupRule = GroupRule.AT_MOST_ONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValidationError("an instance needs at least one group")
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget"))
        check_unique([g.id for g in self.groups], "duplicate group id")
        items = self.all_items()
        check_unique([it.id for it in items], "duplicate item id")
        check_lengths(self.frame, ((it.value, "item {!r}", it.id) for it in items))

    def all_items(self) -> list[Item]:
        return [it for g in self.groups for it in g.items]


@frozen
class SelectionSolution:
    chosen: frozenset[str]
    total_cost: Fraction
    objective: Fraction
    objective_vector: EstimateVector


def _betas(frame: CriteriaFrame, items: Sequence[Item], weights: Sequence[Number] | None) -> dict[str, Fraction]:
    """Each item's scalarized value, by item id."""
    return dict(zip((it.id for it in items), scalarize(frame, [it.value for it in items], weights)))


def _solution(
    inst_frame: CriteriaFrame,
    items: Sequence[Item],
    betas: dict[str, Fraction],
    chosen_ids: set[str],
) -> SelectionSolution:
    chosen_items = [it for it in items if it.id in chosen_ids]
    return SelectionSolution(
        chosen=frozenset(chosen_ids),
        total_cost=sum((it.cost for it in chosen_items), Fraction(0)),
        objective=sum((betas[i] for i in chosen_ids), Fraction(0)),
        objective_vector=vector_sum(inst_frame, [it.value for it in chosen_items]),
    )


def knapsack_greedy(
    inst: KnapsackInstance, weights: Sequence[Number] | None = None
) -> SelectionSolution:
    """Value-density greedy packing followed by one pass of improving swaps.

    Zero-cost items sort first (by value); ties always break on item id,
    so the result is deterministic.
    """
    betas = _betas(inst.frame, inst.items, weights)

    def sort_key(it: Item):
        if it.cost == 0:
            return (0, -betas[it.id], it.id)
        return (1, -(betas[it.id] / it.cost), it.id)

    chosen: set[str] = set()
    total = Fraction(0)
    for it in sorted(inst.items, key=sort_key):
        if total + it.cost <= inst.budget:
            chosen.add(it.id)
            total += it.cost
    by_id = {it.id: it for it in inst.items}
    for cid in sorted(chosen):
        for oid in sorted(set(by_id) - chosen):
            inside, outside = by_id[cid], by_id[oid]
            if betas[oid] > betas[cid] and total - inside.cost + outside.cost <= inst.budget:
                chosen.remove(cid)
                chosen.add(oid)
                total += outside.cost - inside.cost
                break
    return _solution(inst.frame, inst.items, betas, chosen)


def _require_integral(values: list[Fraction], what: str) -> list[int]:
    out = []
    for v in values:
        if v.denominator != 1:
            raise ValidationError(f"{what} must be integral, got {v}")
        out.append(int(v))
    return out


def knapsack_exact(
    inst: KnapsackInstance, weights: Sequence[Number] | None = None
) -> SelectionSolution:
    """Exact DP over the budget; optimal for the scalarized objective.

    Requires integral costs and budget. The table guard counts DP table
    cells: (items of nonzero cost) x (budget cap + 1), where the cap is
    the budget or the cost sum, whichever is smaller.
    """
    costs = _require_integral([it.cost for it in inst.items], "knapsack costs")
    (budget,) = _require_integral([inst.budget], "knapsack budget")
    cap = min(budget, sum(costs))
    # zero-cost items never hurt: beta >= 0 after normalization
    chosen = {it.id for it in inst.items if it.cost == 0}
    priced = [it for it in inst.items if it.cost != 0]
    check_guard(len(priced) * (cap + 1), TABLE_GUARD, "table cells")
    betas = _betas(inst.frame, inst.items, weights)
    scaled = dict(zip(betas, as_ints(list(betas.values()))))
    dp = [0] * (cap + 1)
    taken = [bytearray(cap + 1) for _ in priced]
    for it, took in zip(priced, taken):
        c, b = int(it.cost), scaled[it.id]
        for w in range(cap, c - 1, -1):
            cand = dp[w - c] + b
            if cand > dp[w]:
                dp[w] = cand
                took[w] = 1
    w = cap
    for idx in range(len(priced) - 1, -1, -1):
        if taken[idx][w]:
            chosen.add(priced[idx].id)
            w -= int(priced[idx].cost)
    return _solution(inst.frame, inst.items, betas, chosen)


def mckp_greedy(
    inst: MckpInstance, weights: Sequence[Number] | None = None
) -> SelectionSolution:
    """Incremental add-or-upgrade heuristic.

    Starts empty (at-most-one) or at each group's cheapest item
    (exactly-one), then repeatedly applies the improving move with the best
    value-gain per cost; improving moves that cost nothing extra are taken
    first. Ties break on (group id, item id).
    """
    betas = _betas(inst.frame, inst.all_items(), weights)
    current: dict[str, Item | None] = {g.id: None for g in inst.groups}
    total = Fraction(0)
    if inst.group_rule is GroupRule.EXACTLY_ONE:
        for g in inst.groups:
            cheapest = min(g.items, key=lambda it: (it.cost, it.id))
            current[g.id] = cheapest
            total += cheapest.cost
        if total > inst.budget:
            raise InfeasibleError(
                f"cheapest exactly-one selection costs {total} > budget {inst.budget}"
            )
    while True:
        best_key = None
        best_move = None
        for g in inst.groups:
            cur = current[g.id]
            cur_cost = cur.cost if cur else Fraction(0)
            cur_beta = betas[cur.id] if cur else Fraction(0)
            for it in g.items:
                if cur is not None and it.id == cur.id:
                    continue
                d_cost = it.cost - cur_cost
                d_beta = betas[it.id] - cur_beta
                if d_beta <= 0 or total + d_cost > inst.budget:
                    continue
                if d_cost <= 0:
                    key = (0, -d_beta, g.id, it.id)
                else:
                    key = (1, -(d_beta / d_cost), g.id, it.id)
                if best_key is None or key < best_key:
                    best_key = key
                    best_move = (g.id, it, d_cost)
        if best_move is None:
            break
        gid, it, d_cost = best_move
        current[gid] = it
        total += d_cost
    chosen = {it.id for it in current.values() if it is not None}
    return _solution(inst.frame, inst.all_items(), betas, chosen)


def mckp_exact_dp(
    inst: MckpInstance, weights: Sequence[Number] | None = None
) -> SelectionSolution:
    """Group-wise DP, optimal for the scalarized objective."""
    all_costs = _require_integral(
        [it.cost for g in inst.groups for it in g.items], "group item costs"
    )
    (budget,) = _require_integral([inst.budget], "budget")
    cap = min(budget, sum(all_costs))
    check_guard(len(inst.groups) * (cap + 1), TABLE_GUARD, "table cells")
    betas = _betas(inst.frame, inst.all_items(), weights)
    scaled = dict(zip(betas, as_ints(list(betas.values()))))
    exactly = inst.group_rule is GroupRule.EXACTLY_ONE
    prev: list[int | None] = [0] * (cap + 1)
    choice: list[list[int]] = []
    for g in inst.groups:
        # -2 unreachable, -1 skip, >=0 item index
        if exactly:
            row: list[int | None] = [None] * (cap + 1)
            pick = [-2] * (cap + 1)
        else:
            row = prev[:]
            pick = [-2 if v is None else -1 for v in prev]
        # each cell compares skip, then the items in order; strict > keeps the first best
        for j, it in enumerate(g.items):
            ic, b = int(it.cost), scaled[it.id]
            for c in range(ic, cap + 1):
                base = prev[c - ic]
                if base is not None:
                    cand = base + b
                    cur = row[c]
                    if cur is None or cand > cur:
                        row[c] = cand
                        pick[c] = j
        prev = row
        choice.append(pick)
    best_c = None
    for c in range(cap + 1):
        if prev[c] is not None and (best_c is None or prev[c] > prev[best_c]):
            best_c = c
    if best_c is None:
        raise InfeasibleError(
            f"no exactly-one selection fits within budget {inst.budget}"
        )
    chosen: set[str] = set()
    c = best_c
    for gi in range(len(inst.groups) - 1, -1, -1):
        j = choice[gi][c]
        if j >= 0:
            it = inst.groups[gi].items[j]
            chosen.add(it.id)
            c -= int(it.cost)
    return _solution(inst.frame, inst.all_items(), betas, chosen)


# ------------------------------------------------ report and file format


@frozen
class KnapsackProblem:
    instance: KnapsackInstance


@frozen
class MckpProblem:
    instance: MckpInstance


def selection_payload(sol: SelectionSolution) -> dict:
    """The report fields of one selection, shared with ``hmmdkit improve``."""
    return {
        "chosen": sorted(sol.chosen),
        "total_cost": sol.total_cost,
        "objective": sol.objective,
        "objective_vector": sol.objective_vector,
    }


def report_selection(problem, method, weights, oracle):
    """``hmmdkit knapsack`` and ``hmmdkit mckp``: the oracle holds knapsack
    greedy to 0.75 of exact, and MCKP exact to at least greedy."""
    inst = problem.instance
    knapsack = isinstance(inst, KnapsackInstance)
    greedy_solve, exact_solve = (knapsack_greedy, knapsack_exact) if knapsack else (mckp_greedy, mckp_exact_dp)
    sol = greedy_solve(inst, weights) if method == "greedy" else exact_solve(inst, weights)
    diagnostics = {}
    if oracle:
        try:
            exact = sol if method == "exact" else exact_solve(inst, weights)
        except (ValidationError, GuardExceeded) as exc:
            diagnostics["oracle"] = f"skipped ({exc})"
        else:
            greedy = sol if method == "greedy" else greedy_solve(inst, weights)
            g, e = greedy.objective, exact.objective
            if knapsack and g < Fraction(3, 4) * e:
                raise OracleError(f"greedy objective {g} below 0.75 x exact {e}")
            if not knapsack and e < g:
                raise OracleError(f"exact objective {e} below greedy {g}")
            diagnostics["oracle"] = "ok (greedy within 0.75 of exact)" if knapsack else "ok (exact >= greedy)"
    if sol.total_cost > inst.budget:
        raise InfeasibleError("budget violated")
    return selection_payload(sol), diagnostics


report_knapsack = report_mckp = report_selection


def items_codec(value_key: str):
    """An array of items whose value vectors sit under ``value_key``;
    knapsack, mckp, pipeline and improve files share it."""
    from .probio import FRAC, STR, VECTOR, List, Record

    return List(Record(("id", STR, "id"), (value_key, VECTOR, "value"), ("cost", FRAC, "cost"), build=Item), 1)


def selection_codecs(*extra: tuple) -> tuple:
    """The solution codec of a selection report, with ``extra`` ``(key,
    codec)`` fields, and the body lines of its text report; knapsack, mckp
    and improve share them."""
    from .probio import FRAC, FRACS, ID_LIST, doc, render_number

    def text(sol: dict) -> list[str]:
        chosen = sol["chosen"]
        lines = ["chosen: " + (", ".join(chosen) if chosen else "(none)")]
        if "by_part" in sol:
            for part, action in sorted(sol["by_part"].items()):
                lines.append(f"  {part}: {action if action else '(no action)'}")
        lines.append(f"total cost: {render_number(sol['total_cost'])}")
        lines.append(f"objective: {render_number(sol['objective'])}")
        lines.append(
            "objective vector: ("
            + ", ".join(render_number(v) for v in sol["objective_vector"])
            + ")"
        )
        return lines

    fields = (("chosen", ID_LIST), ("total_cost", FRAC), ("objective", FRAC), ("objective_vector", FRACS))
    return doc(*fields, *extra), text


def codecs(problem_type: str) -> tuple:
    """The knapsack or mckp file's payload codec, its report's solution
    codec and the body lines of its text report (``probio.OWNERS``)."""
    from .probio import FRAC, STR, List, Record, choice

    frame, _ = shapes()

    if problem_type == "knapsack":
        payload = Record(
            ("criteria", frame, "instance.frame"),
            ("items", items_codec("value"), "instance.items"),
            ("budget", FRAC, "instance.budget"),
            build=lambda *args: KnapsackProblem(KnapsackInstance(*args)),
        )
    else:
        group = Record(("id", STR, "id"), ("items", items_codec("value"), "items"), build=Group)
        payload = Record(
            ("criteria", frame, "instance.frame"),
            ("groups", List(group, 1), "instance.groups"),
            ("budget", FRAC, "instance.budget"),
            ("group_rule", choice(GroupRule), "instance.group_rule", GroupRule.AT_MOST_ONE),
            build=lambda *args: MckpProblem(MckpInstance(*args)),
        )
    return payload, *selection_codecs()
