"""Multicriteria multiple-choice knapsack: the owner of the mckp problem
type.

Items come in groups, at most one (or exactly one) chosen per group. An
add-or-upgrade greedy, and an exact group-wise dynamic program over the
budget for integral costs; ``improve`` plans with both. Items, solutions
and the report core are shared with the knapsack through ``select``.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .core import InfeasibleError, ValidationError, check_guard, check_unique, frozen
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
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget", at=".budget"))
        check_unique([g.id for g in self.groups], "duplicate group id")
        items = self.all_items()
        check_unique([it.id for it in items], "duplicate item id")
        check_lengths(self.frame, ((it.value, "item {!r}", it.id) for it in items))

    def all_items(self) -> list[Item]:
        return [it for g in self.groups for it in g.items]


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
class MckpProblem:
    instance: MckpInstance


def report_mckp(problem, method, weights, oracle):
    """``hmmdkit mckp``: the oracle holds exact to at least greedy."""
    return report_selection(problem.instance, method, weights, oracle, mckp_greedy, mckp_exact_dp, False)


def codecs() -> tuple:
    """The mckp file's payload codec, its report's solution codec and the
    body lines of its text report (``probio.OWNERS``)."""
    from .exact import FRAC
    from .probio import STR, List, Record, choice

    frame, _ = shapes()
    group = Record(("id", STR, "id"), ("items", items_codec("value"), "items"), build=Group)
    payload = Record(
        ("criteria", frame, "instance.frame"),
        ("groups", List(group, 1), "instance.groups"),
        ("budget", FRAC, "instance.budget"),
        ("group_rule", choice(GroupRule), "instance.group_rule", GroupRule.AT_MOST_ONE),
        build=lambda *args: MckpProblem(MckpInstance(*args)),
    )
    return payload, *selection_codecs()
