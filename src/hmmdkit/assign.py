"""Multicriteria assignment of agents to capacity-limited positions.

Greedy best-cell heuristic, exact scalarized enumeration, and Pareto-set
enumeration over small instances. Assignments are maximal: no agent stays
unassigned while an open position remains.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .core import (
    CriteriaFrame,
    Direction,
    EstimateVector,
    GuardExceeded,
    Number,
    OracleError,
    ValidationError,
    check_guard,
    check_lengths,
    check_unique,
    dominates,
    frozen,
    non_dominated,
    scalarize,
    vector_sum,
)

ENUMERATION_GUARD = 9


@frozen
class AssignmentInstance:
    agents: tuple[str, ...]
    positions: tuple[str, ...]
    cells: tuple[tuple[EstimateVector, ...], ...]  # agents x positions
    frame: CriteriaFrame
    capacity: dict[str, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "cells", tuple(tuple(r) for r in self.cells))
        if not self.agents or not self.positions:
            raise ValidationError("agents and positions must be non-empty")
        check_unique(self.agents, "duplicate agent id")
        check_unique(self.positions, "duplicate position id")
        if len(self.cells) != len(self.agents) or any(
            len(r) != len(self.positions) for r in self.cells
        ):
            raise ValidationError(
                f"cell matrix must be {len(self.agents)}x{len(self.positions)}"
            )
        check_lengths(self.frame, (
            (v, "cell ({!r}, {!r})", agent, pos)
            for agent, row in zip(self.agents, self.cells)
            for pos, v in zip(self.positions, row)
        ))
        cap = dict(self.capacity) if self.capacity else {}
        for pos in self.positions:
            cap.setdefault(pos, 1)
        unknown = set(cap) - set(self.positions)
        if unknown:
            raise ValidationError(f"capacity for unknown positions: {sorted(unknown)}")
        for pos, c in cap.items():
            if not isinstance(c, int) or c < 1:
                raise ValidationError(f"capacity of {pos!r} must be a positive integer")
        object.__setattr__(self, "capacity", cap)

    def total_capacity(self) -> int:
        return sum(self.capacity.values())


@frozen
class AssignmentSolution:
    pairs: frozenset[tuple[str, str]]
    objective_vector: EstimateVector
    objective: Fraction


def _cell_betas(
    inst: AssignmentInstance, weights: Sequence[Number] | None
) -> dict[tuple[str, str], Fraction]:
    flat = [v for row in inst.cells for v in row]
    betas = scalarize(inst.frame, flat, weights)
    keys = [(a, p) for a in inst.agents for p in inst.positions]
    return dict(zip(keys, betas))


def _solution(inst: AssignmentInstance, pairs: set[tuple[str, str]], betas) -> AssignmentSolution:
    vectors = [
        inst.cells[inst.agents.index(a)][inst.positions.index(p)] for a, p in pairs
    ]
    objective = sum((betas[pr] for pr in pairs), Fraction(0))
    return AssignmentSolution(frozenset(pairs), vector_sum(inst.frame, vectors), objective)


def assign_greedy(
    inst: AssignmentInstance, weights: Sequence[Number] | None = None
) -> AssignmentSolution:
    """Repeatedly fix the best remaining cell by scalar value.

    Ties break on (agent, position) input order. Surplus agents stay
    unassigned once every position is full.
    """
    betas = _cell_betas(inst, weights)
    free_agents = list(inst.agents)
    room = dict(inst.capacity)
    pairs: set[tuple[str, str]] = set()
    while free_agents and any(room[p] > 0 for p in inst.positions):
        best = None
        for a in free_agents:
            for p in inst.positions:
                if room[p] <= 0:
                    continue
                key = (-betas[(a, p)], inst.agents.index(a), inst.positions.index(p))
                if best is None or key < best[0]:
                    best = (key, a, p)
        _, a, p = best
        pairs.add((a, p))
        free_agents.remove(a)
        room[p] -= 1
    return _solution(inst, pairs, betas)


def _maximal_assignments(inst: AssignmentInstance):
    """Yield every maximal assignment as a list of (agent, position) pairs."""
    target = min(len(inst.agents), inst.total_capacity())
    n = len(inst.agents)

    def rec(i: int, room: dict[str, int], chosen: list[tuple[str, str]]):
        if i == n:
            if len(chosen) == target:
                yield list(chosen)
            return
        remaining_after = n - i - 1
        agent = inst.agents[i]
        for p in inst.positions:
            if room[p] > 0:
                room[p] -= 1
                chosen.append((agent, p))
                yield from rec(i + 1, room, chosen)
                chosen.pop()
                room[p] += 1
        # skipping this agent is allowed only if the target is still reachable
        if len(chosen) + remaining_after >= target:
            yield from rec(i + 1, room, chosen)

    yield from rec(0, dict(inst.capacity), [])


def assign_exact(
    inst: AssignmentInstance, weights: Sequence[Number] | None = None
) -> AssignmentSolution:
    """Best maximal assignment for the scalarized objective.

    Ties break on the lexicographically smallest sorted pair list.
    """
    check_guard(min(len(inst.agents), inst.total_capacity()), ENUMERATION_GUARD, "assigned agents")
    betas = _cell_betas(inst, weights)
    best = None
    for pairs in _maximal_assignments(inst):
        obj = sum((betas[pr] for pr in pairs), Fraction(0))
        key = (-obj, sorted(pairs))
        if best is None or key < best[0]:
            best = (key, set(pairs))
    return _solution(inst, best[1], betas)


def _adjusted(frame: CriteriaFrame, vec: EstimateVector) -> tuple[Fraction, ...]:
    # larger-is-better view of an objective sum: flip minimized criteria
    return tuple(
        v if d is Direction.MAXIMIZE else -v
        for v, d in zip(vec, frame.directions)
    )


def assign_pareto(inst: AssignmentInstance) -> list[AssignmentSolution]:
    """All maximal assignments with a non-dominated objective vector."""
    check_guard(min(len(inst.agents), inst.total_capacity()), ENUMERATION_GUARD, "assigned agents")
    betas = _cell_betas(inst, None)
    sols = [_solution(inst, set(pairs), betas) for pairs in _maximal_assignments(inst)]
    front = non_dominated(sols, dominates, lambda s: _adjusted(inst.frame, s.objective_vector))
    return sorted(front, key=lambda s: sorted(s.pairs))


# ---------------------------------------------------------------- report


def _entry(sol: AssignmentSolution) -> dict:
    return {
        "pairs": sorted(sol.pairs),
        "objective": sol.objective,
        "objective_vector": sol.objective_vector,
    }


def report_assign(problem, method, weights, oracle):
    """``hmmdkit assign``: the oracle finds the exact solution on the Pareto
    front, or holds it to at least greedy."""
    inst = problem.instance
    if method == "pareto":
        solution = {"solutions": [_entry(s) for s in assign_pareto(inst)]}
    else:
        sol = assign_greedy(inst, weights) if method == "greedy" else assign_exact(inst, weights)
        solution = {"solutions": [_entry(sol)]}
    diagnostics = {}
    if oracle:
        try:
            exact = assign_exact(inst, weights)
        except GuardExceeded as exc:
            diagnostics["oracle"] = f"skipped ({exc})"
        else:
            if method == "pareto":
                front_pairs = {frozenset(map(tuple, e["pairs"])) for e in solution["solutions"]}
                if frozenset(exact.pairs) not in front_pairs:
                    raise OracleError("exact solution missing from front")
                diagnostics["oracle"] = "ok (front contains exact solution)"
            else:
                greedy = assign_greedy(inst, weights)
                if exact.objective < greedy.objective:
                    raise OracleError(f"exact objective {exact.objective} below greedy {greedy.objective}")
                diagnostics["oracle"] = "ok (exact >= greedy)"
    return solution, diagnostics
