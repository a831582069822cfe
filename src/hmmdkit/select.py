"""What the two selection problem types share: items, solutions and the
report core.

Vector-valued items are reduced to scalar values by ``criteria.scalarize``
(min-max normalization over the instance's item set, then a weighted
sum; re-exported here). The knapsack type lives in ``knapsack`` and the
multiple-choice knapsack in ``mckp``: each pairs a greedy heuristic with
an exact dynamic-programming oracle for integral data. ``improve`` and
``pipeline`` build on the items and codecs here. Of the names that moved
to ``knapsack`` and ``mckp``, only the instances and solvers that the
benchmark harness reads stay importable from this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from importlib import import_module

from .core import GuardExceeded, InfeasibleError, OracleError, ValidationError, frozen
from .criteria import CriteriaFrame, nonnegative, scalarize, vector_sum
from .exact import EstimateVector, Number

#: DP table cells of knapsack_exact and mckp_exact_dp
TABLE_GUARD = 10**7

#: the names that moved to ``knapsack`` and ``mckp`` and that the benchmark
#: harness (``perfbench``) still reads from here; the lookup is lazy, since
#: both homes import this module
_MOVED = {
    **dict.fromkeys(("KnapsackInstance", "knapsack_exact", "knapsack_greedy"), "knapsack"),
    **dict.fromkeys(("Group", "MckpInstance", "mckp_exact_dp", "mckp_greedy"), "mckp"),
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MOVED[name]}", __package__), name)


@frozen
class Item:
    id: str
    value: EstimateVector
    cost: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost", nonnegative(self.cost, "item {!r}: cost", self.id, at=".cost"))


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


def _require_integral(values: list[Fraction], what: str) -> list[int]:
    out = []
    for v in values:
        if v.denominator != 1:
            raise ValidationError(f"{what} must be integral, got {v}")
        out.append(int(v))
    return out


# ------------------------------------------------ report and file format


def selection_payload(sol: SelectionSolution) -> dict:
    """The report fields of one selection, shared with ``hmmdkit improve``."""
    return {
        "chosen": sorted(sol.chosen),
        "total_cost": sol.total_cost,
        "objective": sol.objective,
        "objective_vector": sol.objective_vector,
    }


def report_selection(inst, method, weights, oracle, greedy_solve, exact_solve, knapsack: bool):
    """The report of ``hmmdkit knapsack`` (``knapsack`` true) or ``hmmdkit
    mckp`` on ``inst``, solved by ``greedy_solve`` or ``exact_solve``: the
    oracle holds knapsack greedy to 0.75 of exact, and MCKP exact to at
    least greedy."""
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


def items_codec(value_key: str):
    """An array of items whose value vectors sit under ``value_key``;
    knapsack, mckp, pipeline and improve files share it."""
    from .exact import FRAC, VECTOR
    from .probio import STR, List, Record

    return List(Record(("id", STR, "id"), (value_key, VECTOR, "value"), ("cost", FRAC, "cost"), build=Item), 1)


def selection_codecs(*extra: tuple) -> tuple:
    """The solution codec of a selection report, with ``extra`` ``(key,
    codec)`` fields, and the body lines of its text report; knapsack, mckp
    and improve share them."""
    from .exact import FRAC, FRACS, render_number
    from .probio import ID_LIST, doc

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
