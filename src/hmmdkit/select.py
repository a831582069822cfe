"""Multicriteria knapsack and multiple-choice knapsack solvers.

Vector-valued items are reduced to scalar values by min-max normalization
over the instance's item set followed by a weighted sum; greedy heuristics
come paired with exact dynamic-programming oracles for integral data.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .core import (
    CriteriaFrame,
    EstimateVector,
    GuardExceeded,
    InfeasibleError,
    Number,
    ValidationError,
    as_frac,
    as_ints,
    frozen,
    guard_limit,
    normalize_estimates,
    vector_sum,
)

KNAPSACK_TABLE_GUARD = 10**7
MCKP_TABLE_GUARD = 10**7


@frozen
class Item:
    id: str
    value: EstimateVector
    cost: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost", as_frac(self.cost))
        if self.cost < 0:
            raise ValidationError(f"item {self.id!r}: cost must be nonnegative")


@frozen
class KnapsackInstance:
    frame: CriteriaFrame
    items: tuple[Item, ...]
    budget: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "budget", as_frac(self.budget))
        if self.budget < 0:
            raise ValidationError("budget must be nonnegative")
        ids = [it.id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate item ids: {ids}")
        for it in self.items:
            if not it.value.conforms(self.frame):
                raise ValidationError(f"item {it.id!r}: value length mismatch")


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
        object.__setattr__(self, "budget", as_frac(self.budget))
        if not self.groups:
            raise ValidationError("an instance needs at least one group")
        if self.budget < 0:
            raise ValidationError("budget must be nonnegative")
        gids = [g.id for g in self.groups]
        if len(set(gids)) != len(gids):
            raise ValidationError(f"duplicate group ids: {gids}")
        ids = [it.id for g in self.groups for it in g.items]
        if len(set(ids)) != len(ids):
            raise ValidationError("item ids must be unique across groups")
        for g in self.groups:
            for it in g.items:
                if not it.value.conforms(self.frame):
                    raise ValidationError(f"item {it.id!r}: value length mismatch")

    def all_items(self) -> list[Item]:
        return [it for g in self.groups for it in g.items]


@frozen
class SelectionSolution:
    chosen: frozenset[str]
    total_cost: Fraction
    objective: Fraction
    objective_vector: EstimateVector


def scalarize(
    frame: CriteriaFrame,
    values: Sequence[EstimateVector],
    weights: Sequence[Number] | None = None,
) -> list[Fraction]:
    """Scalar value per vector: weighted sum of min-max-normalized components.

    Weights default to the frame's; explicit weights must be nonnegative,
    not all zero, and are normalized to sum 1.
    """
    if weights is None:
        lam = frame.weights
    else:
        lam = tuple(as_frac(w) for w in weights)
        if len(lam) != len(frame):
            raise ValidationError(
                f"{len(lam)} weights for {len(frame)} criteria"
            )
        if any(w < 0 for w in lam):
            raise ValidationError("weights must be nonnegative")
        total = sum(lam, Fraction(0))
        if total == 0:
            raise ValidationError("weights must not all be zero")
        lam = tuple(w / total for w in lam)
    norm = normalize_estimates(frame, values)
    return [sum((w * v for w, v in zip(lam, row)), Fraction(0)) for row in norm]


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
    limit = guard_limit(KNAPSACK_TABLE_GUARD)
    if len(priced) * (cap + 1) > limit:
        raise GuardExceeded(
            f"{len(priced)} items x budget {cap} exceeds table guard {limit}"
        )
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
    limit = guard_limit(MCKP_TABLE_GUARD)
    if len(inst.groups) * (cap + 1) > limit:
        raise GuardExceeded(
            f"{len(inst.groups)} groups x budget {cap} exceeds table guard {limit}"
        )
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
