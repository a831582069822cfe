"""Multicriteria ranking of alternatives into ordinal priority groups.

Four methods: additive utility, Pareto layers, outranking with
concordance/discordance thresholds, and closeness to the ideal point.
Every method yields dense priorities (1 = best) plus a method-specific
score where higher is better.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction

from .core import OracleError, ValidationError, check_unique, dominates, frozen
from .criteria import CriteriaFrame, as_ints, check_lengths, check_rows, oriented_columns, scalarize, shapes
from .exact import EstimateVector, Number, as_frac

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
    """Dense priorities by descending exact score; equal scores tie."""
    order = sorted(scored, key=lambda a: (-scored[a], a))
    priorities: dict[str, int] = {}
    level = 0
    prev: Number | None = None
    for aid in order:
        s = scored[aid]
        if s != prev:
            level += 1
            prev = s
        priorities[aid] = level
    return priorities


def normalize_estimates(
    frame: CriteriaFrame, rows: Sequence[EstimateVector]
) -> list[EstimateVector]:
    """Min-max rescale each criterion over the rows to canonical [0, 1] form.

    Minimized criteria are flipped so 1 is always best; a criterion that is
    constant across the rows maps to 1/2 for every row (neutral, so it never
    biases a utility sum).
    """
    check_rows(frame, rows)
    out_cols: list[list[Fraction]] = []
    # (x - lo) / (hi - lo) is the same on a column's lcm-scaled ints
    for col in oriented_columns(frame, rows):
        lo, hi = min(col), max(col)
        if lo == hi:
            out_cols.append([Fraction(1, 2)] * len(rows))
        else:
            out_cols.append([Fraction(x - lo, hi - lo) for x in col])
    return [EstimateVector(vals) for vals in zip(*out_cols)]


def pareto_layers(keys: Sequence[Sequence[Number]]) -> list[int]:
    """1-based Pareto layer per key (orderable vectors, as for
    ``core.non_dominated``): one more than the deepest layer of any key that
    strictly dominates it. One pass over the distinct keys, largest first,
    so every dominator has its layer when a key is reached."""
    layer: dict[Sequence[Number], int] = {}
    for k in sorted(set(keys), reverse=True):
        layer[k] = 1 + max((layer[o] for o in layer if dominates(o, k)), default=0)
    return [layer[k] for k in keys]


def _columns(inst: RankingInstance) -> list[list[int]]:
    # min-max normalization is strictly increasing on a non-constant column
    # and constant on a constant one, so it keeps every dominance test, and
    # so does scaling a column to ints
    return oriented_columns(inst.frame, [est for _, est in inst.alternatives])


def _oriented(inst: RankingInstance) -> list[tuple[int, ...]]:
    return list(zip(*_columns(inst)))


def rank_utility(inst: RankingInstance) -> RankingResult:
    """Weighted sum of normalized estimates."""
    scores = dict(zip(inst.ids, scalarize(inst.frame, [est for _, est in inst.alternatives])))
    return RankingResult(_dense_priorities(scores), scores, "utility")


def rank_pareto_layers(inst: RankingInstance) -> RankingResult:
    """Priority = index of the Pareto layer the alternative falls into."""
    layers = pareto_layers(_oriented(inst))
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


def _successor_masks(cols: list[list[int]], weights: list[int], p: Fraction, q: Fraction) -> list[int]:
    """Bit b of entry a is set when a outranks b (a != b), for columns of
    oriented ints (larger is better) and int weights.

    Each column is sorted once, with prefix masks over the original indices
    in that order. On criterion c, "a is at least as good as b" is the
    prefix up to x_a, and "b does not beat a by more than q" the prefix up
    to x_a + floor(q (hi - lo)), since the values are ints. The concordance
    weight of every b at once is a bit-sliced counter: plane t holds bit t
    of each b's sum, and adding w_c times a mask ripples a carry through the
    planes. It reaches p * sum(W) where it is at least
    ceil(p.num * sum(W) / p.den), compared plane by plane from the top.
    """
    n = len(cols[0])
    need = -(-p.numerator * sum(weights) // p.denominator)
    ladders = []  # per criterion: (sorted values, prefix masks, veto reach)
    for col in cols:
        order = sorted(range(n), key=col.__getitem__)
        prefix = [0] * (n + 1)
        mask = 0
        for r, i in enumerate(order, 1):
            mask |= 1 << i
            prefix[r] = mask
        reach = q.numerator * (col[order[-1]] - col[order[0]]) // q.denominator
        ladders.append(([col[i] for i in order], prefix, reach))
    # no sum exceeds sum(W), and need <= sum(W) since p <= 1
    full, width = (1 << n) - 1, sum(weights).bit_length()
    out = []
    for a in range(n):
        allowed = full ^ (1 << a)
        planes = [0] * width
        for (values, prefix, reach), w, col in zip(ladders, weights, cols):
            x = col[a]
            allowed &= prefix[bisect_right(values, x + reach)]
            at_least, t = prefix[bisect_right(values, x)], 0
            while w:
                if w & 1:
                    carry, s = at_least, t
                    while carry:
                        cur = planes[s]
                        planes[s] = cur ^ carry
                        carry &= cur
                        s += 1
                w >>= 1
                t += 1
        # sum >= need, deciding each bit from the most significant plane down
        above, equal = 0, allowed
        for t in range(width - 1, -1, -1):
            if need >> t & 1:
                equal &= planes[t]
            else:
                above |= equal & planes[t]
                equal &= ~planes[t]
        out.append((above | equal) & allowed)
    return out


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

    Both tests are decided on the oriented estimates, exactly. Min-max
    normalization maps an oriented value x to (x - lo) / (hi - lo), which
    is increasing. So a is at least as good as b after normalization
    exactly when it is before, and b beats a by more than q exactly when
    x_b - x_a > q (hi - lo). A constant column normalizes to 1/2
    everywhere; on oriented values, too, every pair ties on it and it
    never fails discordance. Columns and weights are scaled to ints, which
    keeps both tests.

    Each test is a bitmask over the alternatives (``_successor_masks``),
    so a row costs a few operations per criterion rather than a loop over
    every other row.
    """
    p, q = outranking_thresholds(p, q)
    masks = _successor_masks(_columns(inst), as_ints(list(inst.frame.weights)), p, q)
    succ: list[list[int]] = []
    for mask in masks:  # the set bits, lowest first: ascending index order
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        succ.append(out)
    n = len(succ)
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
    """Relative closeness to the componentwise ideal of the normalized set.

    The score D- / (D+ + D-) of the distances D+ to the ideal and D- to
    the anti-ideal is a float. It increases with S- / (S+ + S-) of the
    squared distances S = D**2, which are exact on the normalized
    Fractions, so the priorities order by that exact closeness (1/2 when
    both are 0, as the score), and scores tie only when they are equal.
    """
    norm = normalize_estimates(inst.frame, [est for _, est in inst.alternatives])
    cols = list(zip(*(row.values for row in norm)))
    ideal = [max(c) for c in cols]
    anti = [min(c) for c in cols]
    scores: dict[str, float] = {}
    closeness: dict[str, Fraction] = {}
    for (aid, _), row in zip(inst.alternatives, norm):
        s_plus = sum((i - v) ** 2 for i, v in zip(ideal, row))
        s_minus = sum((v - a) ** 2 for a, v in zip(anti, row))
        d_plus = math.sqrt(sum(float(i - v) ** 2 for i, v in zip(ideal, row)))
        d_minus = math.sqrt(sum(float(v - a) ** 2 for a, v in zip(anti, row)))
        total = d_plus + d_minus
        scores[aid] = 0.5 if total == 0 else d_minus / total
        closeness[aid] = Fraction(1, 2) if not s_plus + s_minus else s_minus / (s_plus + s_minus)
    return RankingResult(_dense_priorities(closeness), scores, "ideal")


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
        rows = _oriented(inst)
        ids = inst.ids
        for i in range(len(ids)):
            for j in range(len(ids)):
                if i != j and dominates(rows[i], rows[j]):
                    if res.priorities[ids[i]] > res.priorities[ids[j]]:
                        raise OracleError(f"{ids[i]} dominates {ids[j]} but ranks below it")
        diagnostics["oracle"] = "ok (dominance consistency)"
    return solution, diagnostics


def codecs() -> tuple:
    """The rank file's payload codec, its report's solution codec and the
    body lines of its text report (``probio.OWNERS``)."""
    from .exact import FRAC, NUM, VECTOR, render_number
    from .probio import INT, STR, List, Map, Record, doc

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
