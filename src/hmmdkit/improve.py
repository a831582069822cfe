"""One improvement action per system part within a budget: the owner of
the improve problem type.

plan_improvement solves the plan as a multiple-choice knapsack with at
most one item per part, exactly on integral data within the DP table
guard and greedily otherwise; the pipeline's action stage runs it too.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .core import GuardExceeded, Number, OracleError, ValidationError, check_unique, frozen
from .criteria import CriteriaFrame, check_lengths, nonnegative, shapes
from .mckp import Group, GroupRule, MckpInstance, mckp_exact_dp, mckp_greedy
from .select import Item, SelectionSolution, items_codec, selection_codecs, selection_payload


@frozen
class ImprovementPart:
    id: str
    actions: tuple[Item, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        check_unique([a.id for a in self.actions], "part {!r}: duplicate action id", self.id)


@frozen
class ImprovementSpec:
    frame: CriteriaFrame
    parts: tuple[ImprovementPart, ...]
    budget: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget", at=".budget"))
        if not self.parts:
            raise ValidationError("an improvement spec needs at least one part")
        check_unique([p.id for p in self.parts], "duplicate part id")
        check_lengths(self.frame, (
            (a.value, "part {!r}, action {!r}", p.id, a.id) for p in self.parts for a in p.actions
        ))


@frozen
class ImprovementPlan:
    by_part: dict[str, str | None]  # part id -> chosen action id
    solution: SelectionSolution
    method: str


def plan_improvement(
    spec: ImprovementSpec, weights: Sequence[Number] | None = None
) -> ImprovementPlan:
    """At most one improvement action per part within the budget."""
    groups = []
    origin: dict[str, tuple[str, str]] = {}
    for part in spec.parts:
        if not part.actions:
            continue
        items = tuple(
            Item(f"{part.id}::{a.id}", a.value, a.cost) for a in part.actions
        )
        for it, a in zip(items, part.actions):
            origin[it.id] = (part.id, a.id)
        groups.append(Group(part.id, items))
    if not groups:
        raise ValidationError("no actions to select from")
    inst = MckpInstance(
        frame=spec.frame,
        groups=tuple(groups),
        budget=spec.budget,
        group_rule=GroupRule.AT_MOST_ONE,
    )
    solution, method = _solve_mckp(inst, weights)
    by_part: dict[str, str | None] = {p.id: None for p in spec.parts}
    for item_id in solution.chosen:
        part_id, action_id = origin[item_id]
        by_part[part_id] = action_id
    return ImprovementPlan(by_part=by_part, solution=solution, method=method)


def _solve_mckp(inst: MckpInstance, weights) -> tuple[SelectionSolution, str]:
    """Exact DP on integral data within the table guard, greedy otherwise."""
    # integrality is tested here, not by catching ValidationError, which
    # would also swallow a bad HMMD_KIT_GUARD
    integral = inst.budget.denominator == 1 and all(
        it.cost.denominator == 1 for g in inst.groups for it in g.items
    )
    if integral:
        try:
            return mckp_exact_dp(inst, weights), "exact_dp"
        except GuardExceeded:
            pass
    return mckp_greedy(inst, weights), "greedy"


# ----------------------------------------------- report and file format


@frozen
class ImproveProblem:
    spec: ImprovementSpec


def report_improve(problem, method, weights, oracle):
    """``hmmdkit improve``: the oracle checks one action per part within budget."""
    plan = plan_improvement(problem.spec, weights)
    solution = selection_payload(plan.solution)
    solution["by_part"] = dict(sorted(plan.by_part.items()))
    diagnostics = {"solver": plan.method}
    if oracle:
        acted = sum(a is not None for a in plan.by_part.values())
        if len(plan.solution.chosen) != acted:
            raise OracleError("two actions selected for one part")
        if plan.solution.total_cost > problem.spec.budget:
            raise OracleError("improvement plan exceeded its budget")
        diagnostics["oracle"] = "ok (one action per part within budget)"
    return solution, diagnostics


def codecs() -> tuple:
    """The improve file's payload codec, its report's solution codec and
    the body lines of its text report (``probio.OWNERS``)."""
    from .probio import FRAC, STR, List, Map, Record, nullable

    frame, _ = shapes()
    part = Record(("id", STR, "id"), ("actions", items_codec("effect"), "actions"), build=ImprovementPart)
    payload = Record(
        ("criteria", frame, "spec.frame"),
        ("parts", List(part, 1), "spec.parts"),
        ("budget", FRAC, "spec.budget"),
        build=lambda *args: ImproveProblem(ImprovementSpec(*args)),
    )
    return payload, *selection_codecs(("by_part", Map(nullable(STR))))
