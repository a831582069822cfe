"""Multicriteria assignment of agents to capacity-limited positions.

Greedy best-cell heuristic, the exact scalarized optimum by min-cost flow,
and Pareto-set enumeration over small instances. Assignments are maximal:
no agent stays unassigned while an open position remains.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from fractions import Fraction

from .core import (
    EstimateVector,
    Number,
    OracleError,
    ValidationError,
    check_guard,
    check_unique,
    frozen,
    non_dominated,
)
from .criteria import CriteriaFrame, as_ints, check_lengths, oriented_columns, scalarize, shapes, vector_sum

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
    row = {a: i for i, a in enumerate(inst.agents)}
    col = {p: j for j, p in enumerate(inst.positions)}
    vectors = [inst.cells[row[a]][col[p]] for a, p in pairs]
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
    room = dict(inst.capacity)
    assigned: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    # one pass over the cells, best first: a cell that is infeasible now
    # stays so, and the stable sort keeps the (agent, position) order of ties
    for a, p in sorted(betas, key=betas.__getitem__, reverse=True):
        if a not in assigned and room[p] > 0:
            pairs.add((a, p))
            assigned.add(a)
            room[p] -= 1
    return _solution(inst, pairs, betas)


def _maximal_assignments(inst: AssignmentInstance):
    """Yield every maximal assignment as a list of (agent, position) pairs."""
    return _extend(inst, min(len(inst.agents), inst.total_capacity()), 0, dict(inst.capacity), [])


def _extend(inst: AssignmentInstance, target: int, i: int, room: dict[str, int], chosen: list[tuple[str, str]]):
    """The maximal assignments that extend the pairs ``chosen`` for the agents
    before ``i``; not nested, as a closure reaching itself is a reference cycle."""
    if i == len(inst.agents):
        if len(chosen) == target:
            yield list(chosen)
        return
    for p in inst.positions:
        if room[p] > 0:
            room[p] -= 1
            chosen.append((inst.agents[i], p))
            yield from _extend(inst, target, i + 1, room, chosen)
            chosen.pop()
            room[p] += 1
    # skipping this agent is allowed only if the target is still reachable
    if len(chosen) + len(inst.agents) - i - 1 >= target:
        yield from _extend(inst, target, i + 1, room, chosen)


def assign_exact(
    inst: AssignmentInstance, weights: Sequence[Number] | None = None
) -> AssignmentSolution:
    """Best maximal assignment for the scalarized objective.

    Ties break on the lexicographically smallest sorted pair list. One
    min-cost flow finds it: successive shortest paths (Dijkstra with
    potentials) push min(agents, total capacity) units through source →
    agent (capacity 1) → position (capacity 1) → sink (the position's
    capacity). A cell's gain is its lcm-scaled beta shifted left by N + 1
    bits, N = agents × positions, plus 2**(N - rank), where rank is the
    cell's place in sorted (agent, position) order. One cell's bonus
    outweighs those of all larger cells together, and no bonus sum reaches
    one unit of beta, so the optimum is unique and is the tie-break's
    choice. The cost of a cell is the largest gain minus its own.
    """
    betas = _cell_betas(inst, weights)
    n, m = len(inst.agents), len(inst.positions)
    N = n * m
    rank = {pair: r for r, pair in enumerate(sorted(betas))}
    gains = [
        (b << (N + 1)) + (1 << (N - rank[pair]))
        for pair, b in zip(betas, as_ints(list(betas.values())))
    ]
    top = max(gains)
    cost = [[top - g for g in gains[i * m:(i + 1) * m]] for i in range(n)]
    room = [inst.capacity[p] for p in inst.positions]
    # nodes: agents 0..n-1, positions n..n+m-1, the sink n+m. The source
    # reaches every unassigned agent at cost 0, and nothing else reaches
    # one, so an unassigned agent's distance and potential stay 0.
    sink = n + m
    at: list[int | None] = [None] * n  # each agent's position
    pi = [0] * (sink + 1)
    for _ in range(min(n, sum(room))):
        dist: list[int | None] = [None] * (sink + 1)
        prev = [-1] * (sink + 1)
        heap = [(0, a) for a in range(n) if at[a] is None]  # sorted, so a heap
        for _, a in heap:
            dist[a] = 0
        done = [False] * (sink + 1)
        while True:
            d, u = heapq.heappop(heap)
            if u == sink:
                break
            if done[u]:
                continue
            done[u] = True
            if u < n:  # agent u to any position but its own
                arcs = [(n + j, c) for j, c in enumerate(cost[u]) if j != at[u]]
            else:  # position back to an agent it holds, or on to the sink
                j = u - n
                arcs = [(a, -cost[a][j]) for a in range(n) if at[a] == j]
                if room[j]:
                    arcs.append((sink, 0))
            for v, c in arcs:
                nd = d + c + pi[u] - pi[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v], prev[v] = nd, u
                    heapq.heappush(heap, (nd, v))
        # a node the search did not settle is at least as far as the sink
        for v in range(sink + 1):
            pi[v] += dist[v] if done[v] else d
        v = prev[sink]
        room[v - n] -= 1
        while True:  # walk back: each agent on the path moves to the position after it
            a = prev[v]
            old, at[a] = at[a], v - n
            if old is None:
                break
            v = n + old
    pairs = {(inst.agents[a], inst.positions[j]) for a, j in enumerate(at) if j is not None}
    return _solution(inst, pairs, betas)


def assign_pareto(inst: AssignmentInstance) -> list[AssignmentSolution]:
    """All maximal assignments with a non-dominated objective vector, by sorted pairs."""
    check_guard(min(len(inst.agents), inst.total_capacity()), ENUMERATION_GUARD, "assigned agents")
    betas = _cell_betas(inst, None)
    # an assignment's key sums its cells' oriented ints, each column scaled
    # by one positive constant, so dominance on keys is dominance on vectors
    ints = dict(zip(betas, zip(*oriented_columns(inst.frame, [v for row in inst.cells for v in row]))))
    groups = {}  # key -> its assignments
    for pairs in _maximal_assignments(inst):
        groups.setdefault(tuple(map(sum, zip(*map(ints.__getitem__, pairs)))), []).append(pairs)
    front = [_solution(inst, set(pairs), betas) for key in non_dominated(list(groups)) for pairs in groups[key]]
    return sorted(front, key=lambda s: sorted(s.pairs))


# ------------------------------------------------ report and file format


@frozen
class AssignProblem:
    instance: AssignmentInstance


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
        exact = sol if method == "exact" else assign_exact(inst, weights)
        if method == "pareto":
            front_pairs = {frozenset(map(tuple, e["pairs"])) for e in solution["solutions"]}
            if frozenset(exact.pairs) not in front_pairs:
                raise OracleError("exact solution missing from front")
            diagnostics["oracle"] = "ok (front contains exact solution)"
        else:
            greedy = sol if method == "greedy" else assign_greedy(inst, weights)
            if exact.objective < greedy.objective:
                raise OracleError(f"exact objective {exact.objective} below greedy {greedy.objective}")
            diagnostics["oracle"] = "ok (exact >= greedy)"
    return solution, diagnostics


def codecs() -> tuple:
    """The assign file's payload codec, its report's solution codec and
    the body lines of its text report (``probio.OWNERS``)."""
    from .probio import FRAC, FRACS, IDS, INT, PAIRS, Map, Record, array, doc, render_number

    frame, cells = shapes()

    payload = Record(
        ("agents", IDS, "instance.agents"),
        ("positions", IDS, "instance.positions"),
        ("matrix", cells, "instance.cells"),
        ("criteria", frame, "instance.frame"),
        ("capacity", Map(INT), "instance.capacity", None),
        build=lambda *args: AssignProblem(AssignmentInstance(*args)),
    )
    solution = doc(("solutions", array(doc(("pairs", PAIRS), ("objective", FRAC), ("objective_vector", FRACS)))))

    def text(sol: dict) -> list[str]:
        lines = []
        for entry in sol["solutions"]:
            pairs = ", ".join(f"{a} -> {p}" for a, p in entry["pairs"])
            lines.append(f"pairs: {pairs if pairs else '(none)'}")
            lines.append(
                "  objective vector: ("
                + ", ".join(render_number(v) for v in entry["objective_vector"])
                + f"), objective {render_number(entry['objective'])}"
            )
        return lines

    return payload, solution, text
