"""Multicriteria knapsack: the owner of the knapsack problem type.

A value-density greedy with one swap pass, and an exact dynamic program
over the budget for integral costs. Items, solutions and the report core
are shared with MCKP through ``select``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .core import check_guard, check_unique, frozen
from .criteria import CriteriaFrame, as_ints, check_lengths, nonnegative, shapes
from .exact import Number
from .select import (
    TABLE_GUARD,
    Item,
    SelectionSolution,
    _betas,
    _require_integral,
    _solution,
    items_codec,
    report_selection,
    selection_codecs,
)


@frozen
class KnapsackInstance:
    frame: CriteriaFrame
    items: tuple[Item, ...]
    budget: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget", at=".budget"))
        check_unique([it.id for it in self.items], "duplicate item id")
        check_lengths(self.frame, ((it.value, "item {!r}", it.id) for it in self.items))


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


# ------------------------------------------------ report and file format


@frozen
class KnapsackProblem:
    instance: KnapsackInstance


def report_knapsack(problem, method, weights, oracle):
    """``hmmdkit knapsack``: the oracle holds greedy to 0.75 of exact."""
    return report_selection(problem.instance, method, weights, oracle, knapsack_greedy, knapsack_exact, True)


def codecs() -> tuple:
    """The knapsack file's payload codec, its report's solution codec and
    the body lines of its text report (``probio.OWNERS``)."""
    from .exact import FRAC
    from .probio import Record

    frame, _ = shapes()
    payload = Record(
        ("criteria", frame, "instance.frame"),
        ("items", items_codec("value"), "instance.items"),
        ("budget", FRAC, "instance.budget"),
        build=lambda *args: KnapsackProblem(KnapsackInstance(*args)),
    )
    return payload, *selection_codecs()
