"""Multicriteria ranking of alternatives into ordinal priority groups.

Four methods: additive utility, Pareto layers, outranking with
concordance/discordance thresholds, and closeness to the ideal point.
Every method yields dense priorities (1 = best) plus a method-specific
score where higher is better.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    TOLERANCE,
    EstimateVector,
    Number,
    OracleError,
    ValidationError,
    as_frac,
    check_unique,
    dominates,
    frozen,
)
from .criteria import CriteriaFrame, Direction, check_lengths, normalize_estimates, pareto_layers, shapes
from .scalar import as_ints, scalarize

DEFAULT_CONCORDANCE = Fraction(3, 5)
DEFAULT_DISCORDANCE = Fraction(2, 5)


@frozen
class RankingInstance:
    frame: CriteriaFrame
    alternatives: tuple[tuple[str, EstimateVector], ...]

    def __post_init__(self) -> None:
        alts = tuple(self.alternatives)
        object.__setattr__(self, "alternatives", alts)
        if not alts:
            raise ValidationError("a ranking instance needs at least one alternative")
        check_unique([a for a, _ in alts], "duplicate alternative id")
        check_lengths(self.frame, ((est, "alternative {!r}", aid) for aid, est in alts))

    @property
    def ids(self) -> list[str]:
        return [a for a, _ in self.alternatives]


@frozen
class RankingResult:
    priorities: dict[str, int]
    scores: dict[str, Number]
    method: str


def _dense_priorities(scored: dict[str, Number]) -> dict[str, int]:
    """Dense priorities by descending score; scores within tolerance tie."""
    order = sorted(scored, key=lambda a: (-scored[a], a))
    priorities: dict[str, int] = {}
    level = 0
    prev: Number | None = None
    for aid in order:
        s = scored[aid]
        if prev is None or prev - s > TOLERANCE:
            level += 1
            prev = s
        priorities[aid] = level
    return priorities


def _normalized(inst: RankingInstance) -> list[EstimateVector]:
    return normalize_estimates(inst.frame, [est for _, est in inst.alternatives])


def rank_utility(inst: RankingInstance) -> RankingResult:
    """Weighted sum of normalized estimates."""
    scores = dict(zip(inst.ids, scalarize(inst.frame, [est for _, est in inst.alternatives])))
    return RankingResult(_dense_priorities(scores), scores, "utility")


def rank_pareto_layers(inst: RankingInstance) -> RankingResult:
    """Priority = index of the Pareto layer the alternative falls into."""
    norm = _normalized(inst)
    layers = pareto_layers(norm, dominates)
    priorities = {aid: layer for (aid, _), layer in zip(inst.alternatives, layers)}
    scores = {aid: -layer for aid, layer in priorities.items()}
    return RankingResult(priorities, scores, "pareto")


def _strongly_connected(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a digraph, sinks first.

    Tarjan's algorithm (SIAM J. Comput. 1972), iterative so long chains
    do not hit the recursion limit. A component is emitted only after
    every component it reaches, so the list is in reverse topological
    order of the condensation.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, nbrs = work[-1]
            for w in nbrs:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def outranking_thresholds(p: Number, q: Number) -> tuple[Fraction, Fraction]:
    """The concordance and discordance thresholds as Fractions, each in [0, 1]."""
    p, q = as_frac(p), as_frac(q)
    if not 0 <= p <= 1:
        raise ValidationError(f"concordance threshold p={p} outside [0, 1]")
    if not 0 <= q <= 1:
        raise ValidationError(f"discordance threshold q={q} outside [0, 1]")
    return p, q


def rank_outranking(
    inst: RankingInstance,
    p: Number = DEFAULT_CONCORDANCE,
    q: Number = DEFAULT_DISCORDANCE,
) -> RankingResult:
    """Concordance/discordance outranking on normalized estimates.

    An edge a -> b is drawn when the concordance C(a,b) (total weight of
    criteria where a is at least as good; ties count fully) reaches p and
    the discordance D(a,b) (largest normalized amount by which b beats a)
    stays within q. Cycles collapse into one priority group; priority is
    the topological layer of the group, sources first.

    Both tests are decided on the raw estimates, exactly. Min-max
    normalization maps a value x to (x - lo) / (hi - lo), or to
    (hi - x) / (hi - lo) when the criterion is minimized: increasing once
    minimized columns are negated. So a is at least as good as b after
    normalization exactly when it is before, and b beats a by more than q
    exactly when x_b - x_a > q (hi - lo). A constant column normalizes to
    1/2 everywhere; on raw values, too, every pair ties on it and it never
    fails discordance. Columns and weights are scaled to ints, which keeps
    both tests.
    """
    p, q = outranking_thresholds(p, q)
    cols = []  # larger is better in every column
    for k, direction in enumerate(inst.frame.directions):
        col = as_ints([est[k] for _, est in inst.alternatives])
        cols.append([-x for x in col] if direction is Direction.MINIMIZE else col)
    # b beats a by more than q on a criterion: (x_b - x_a) q.den > q.num (hi - lo)
    limits = [q.numerator * (max(col) - min(col)) for col in cols]
    rows = [tuple(x * q.denominator for x in row) for row in zip(*cols)]
    # concordance: sum of W over criteria where a >= b reaches p * sum(W)
    weights = as_ints(list(inst.frame.weights))
    need = p.numerator * sum(weights)
    crits = list(zip(weights, limits))
    n = len(rows)
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, row_a in enumerate(rows):
        out = succ[i]
        for j, row_b in enumerate(rows):
            if i == j:
                continue
            conc = 0
            for x_a, x_b, (w, limit) in zip(row_a, row_b, crits):
                if x_b - x_a > limit:
                    break
                if x_a >= x_b:
                    conc += w
            else:
                if conc * p.denominator >= need:
                    out.append(j)
    comps = _strongly_connected(succ)
    comp_of = [0] * n
    for c, members in enumerate(comps):
        for i in members:
            comp_of[i] = c
    # sinks first, so walking backwards settles every predecessor first
    layer = [1] * len(comps)
    for c in range(len(comps) - 1, -1, -1):
        nxt = layer[c] + 1
        for i in comps[c]:
            for j in succ[i]:
                d = comp_of[j]
                if d != c and layer[d] < nxt:
                    layer[d] = nxt
    priorities = {
        aid: layer[comp_of[i]] for i, (aid, _) in enumerate(inst.alternatives)
    }
    scores = {aid: -lvl for aid, lvl in priorities.items()}
    return RankingResult(priorities, scores, "outranking")


def rank_ideal_point(inst: RankingInstance) -> RankingResult:
    """Relative closeness to the componentwise ideal of the normalized set."""
    norm = _normalized(inst)
    cols = list(zip(*(row.values for row in norm)))
    ideal = [max(c) for c in cols]
    anti = [min(c) for c in cols]
    scores: dict[str, float] = {}
    for (aid, _), row in zip(inst.alternatives, norm):
        d_plus = math.sqrt(sum(float(i - v) ** 2 for i, v in zip(ideal, row)))
        d_minus = math.sqrt(sum(float(v - a) ** 2 for a, v in zip(anti, row)))
        total = d_plus + d_minus
        scores[aid] = 0.5 if total == 0 else d_minus / total
    return RankingResult(_dense_priorities(scores), scores, "ideal")


# ------------------------------------------------ report and file format


@frozen
class RankProblem:
    instance: RankingInstance
    p: Fraction
    q: Fraction


def report_rank(problem, method, weights, oracle):
    """``hmmdkit rank``: (solution, diagnostics) of one report; the oracle
    checks that a better-or-equal vector never ranks worse."""
    inst = problem.instance
    if method == "utility":
        res = rank_utility(inst)
    elif method == "pareto":
        res = rank_pareto_layers(inst)
    elif method == "outranking":
        res = rank_outranking(inst, problem.p, problem.q)
    else:
        res = rank_ideal_point(inst)
    solution = {
        "priorities": dict(sorted(res.priorities.items())),
        "scores": dict(sorted(res.scores.items())),
    }
    diagnostics = {}
    if oracle:
        norm = normalize_estimates(inst.frame, [e for _, e in inst.alternatives])
        ids = inst.ids
        for i in range(len(ids)):
            for j in range(len(ids)):
                if i != j and dominates(norm[i], norm[j]):
                    if res.priorities[ids[i]] > res.priorities[ids[j]]:
                        raise OracleError(f"{ids[i]} dominates {ids[j]} but ranks below it")
        diagnostics["oracle"] = "ok (dominance consistency)"
    return solution, diagnostics


def codecs(problem_type: str) -> tuple:
    """The rank file's payload codec, its report's solution codec and the
    body lines of its text report (``probio.OWNERS``)."""
    from .probio import FRAC, INT, NUM, STR, VECTOR, List, Map, Record, doc, render_number

    frame, _ = shapes()

    payload = Record(
        ("criteria", frame, "instance.frame"),
        ("alternatives", List(Record(("id", STR, 0), ("estimates", VECTOR, 1)), 1), "instance.alternatives"),
        ("p", FRAC, "p", DEFAULT_CONCORDANCE),
        ("q", FRAC, "q", DEFAULT_DISCORDANCE),
        build=lambda frame, alts, p, q: RankProblem(RankingInstance(frame, alts), *outranking_thresholds(p, q)),
    )

    def text(sol: dict) -> list[str]:
        by_alt = sorted(sol["priorities"].items(), key=lambda kv: (kv[1], kv[0]))
        return [f"priority {prio}: {aid} (score {render_number(sol['scores'][aid])})" for aid, prio in by_alt]

    return payload, doc(("priorities", Map(INT)), ("scores", Map(NUM))), text
