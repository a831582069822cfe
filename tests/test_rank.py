import math
import random
from fractions import Fraction

import pytest

import hmmdkit.rank
from conftest import oracle_adjusted, oracle_normalize_estimates
from hmmdkit.core import EstimateVector, OracleError, ValidationError, dominates
from hmmdkit.criteria import Criterion, CriteriaFrame, Direction, as_ints, equal_weight_frame
from hmmdkit.rank import (
    RankingInstance,
    RankingResult,
    RankProblem,
    _columns,
    _dense_priorities,
    _strongly_connected,
    _successor_masks,
    rank_ideal_point,
    rank_outranking,
    rank_pareto_layers,
    rank_utility,
    report_rank,
)

ALL_METHODS = [rank_utility, rank_pareto_layers, rank_outranking, rank_ideal_point]


def make_instance(frame, alts):
    return RankingInstance(frame, tuple((a, EstimateVector(v)) for a, v in alts))


def random_instance(rng, n_alts=None, n_crit=None):
    k = n_crit or rng.randint(1, 4)
    n = n_alts or rng.randint(2, 8)
    frame = equal_weight_frame(k)
    alts = [(f"a{i}", [rng.randint(0, 5) for _ in range(k)]) for i in range(n)]
    return make_instance(frame, alts)


def test_utility_symmetry_tie():
    inst = make_instance(
        equal_weight_frame(2), [("a", [1, 1]), ("b", [1, 0]), ("c", [0, 1])]
    )
    res = rank_utility(inst)
    assert res.priorities == {"a": 1, "b": 2, "c": 2}


def test_utility_degenerate_weights_rank_by_first_criterion():
    frame = CriteriaFrame((Criterion("x", weight=1), Criterion("y", weight=0)))
    inst = make_instance(frame, [("a", [3, 0]), ("b", [1, 9]), ("c", [2, 9])])
    res = rank_utility(inst)
    assert res.priorities == {"a": 1, "c": 2, "b": 3}


def test_exact_scores_tie_only_when_equal():
    # x and y differ by 1/19999800000, far below the float tolerance of 1e-9
    inst = make_instance(equal_weight_frame(2), [
        ("x", [50000, 50000]), ("y", [50001, 49999]), ("a", [100000, 0]), ("b", [0, 99999]), ("lo", [0, 0]),
    ])
    res = rank_utility(inst)
    assert res.scores["x"] - res.scores["y"] == Fraction(1, 19999800000)
    assert res.priorities == {"x": 1, "y": 2, "a": 3, "b": 3, "lo": 4}


def oracle_rank_utility(inst):
    """The weighted sum written out over the normalized estimates, as
    rank_utility did before it called scalar.scalarize."""
    norm = oracle_normalize_estimates(inst.frame, [est for _, est in inst.alternatives])
    weights = inst.frame.weights
    scores = {
        aid: sum((w * v for w, v in zip(weights, row)), Fraction(0))
        for (aid, _), row in zip(inst.alternatives, norm)
    }
    return RankingResult(_dense_priorities(scores), scores, "utility")


def test_utility_matches_the_written_out_oracle():
    rng = random.Random(179)
    entry = lambda: rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0])
    for _ in range(300):
        k = rng.randint(1, 4)
        weights = [rng.choice([0, 1, 2, Fraction(1, 3)]) for _ in range(k)]
        weights[rng.randrange(k)] += 1
        frame = CriteriaFrame(tuple(
            Criterion(f"c{i}", rng.choice(list(Direction)), w) for i, w in enumerate(weights)
        ))
        alts = [(f"a{i}", [entry() for _ in range(k)]) for i in range(rng.randint(1, 8))]
        inst = make_instance(frame, alts)
        got, expected = rank_utility(inst), oracle_rank_utility(inst)
        assert got == expected
        assert list(got.scores) == list(expected.scores) == inst.ids


def test_utility_matches_hand_computed_weighted_sums():
    # oracle: direct arithmetic on normalized values with weights (0.3, 0.7)
    frame = CriteriaFrame(
        (Criterion("u", weight=Fraction(3, 10)), Criterion("v", weight=Fraction(7, 10)))
    )
    data = [("a", [10, 0]), ("b", [0, 10]), ("c", [10, 10]), ("d", [5, 5])]
    inst = make_instance(frame, data)
    res = rank_utility(inst)
    expected_scores = {
        "a": Fraction(3, 10),
        "b": Fraction(7, 10),
        "c": Fraction(1),
        "d": Fraction(1, 2),
    }
    assert res.scores == expected_scores
    assert res.priorities == {"c": 1, "b": 2, "d": 3, "a": 4}


def test_pareto_single_alternative():
    inst = make_instance(equal_weight_frame(2), [("only", [1, 2])])
    assert rank_pareto_layers(inst).priorities == {"only": 1}


def test_pareto_chain_and_incomparable():
    inst = make_instance(
        equal_weight_frame(2), [("a", [3, 3]), ("b", [3, 1]), ("c", [1, 1])]
    )
    assert rank_pareto_layers(inst).priorities == {"a": 1, "b": 2, "c": 3}
    inst2 = make_instance(equal_weight_frame(2), [("a", [3, 1]), ("b", [1, 3])])
    assert rank_pareto_layers(inst2).priorities == {"a": 1, "b": 1}


def test_pareto_layer1_equals_brute_force_front():
    rng = random.Random(23)
    for _ in range(60):
        inst = random_instance(rng, n_alts=rng.randint(1, 12))
        res = rank_pareto_layers(inst)
        norm = oracle_normalize_estimates(inst.frame, [e for _, e in inst.alternatives])
        front = {
            aid
            for i, (aid, _) in enumerate(inst.alternatives)
            if not any(dominates(norm[j], norm[i]) for j in range(len(norm)) if j != i)
        }
        assert {a for a, p in res.priorities.items() if p == 1} == front


def test_outranking_thresholds_validated():
    inst = make_instance(equal_weight_frame(1), [("a", [1]), ("b", [2])])
    with pytest.raises(ValidationError):
        rank_outranking(inst, p=2, q=0)
    with pytest.raises(ValidationError):
        rank_outranking(inst, p=1, q=-1)


def test_outranking_dominant_row_wins():
    inst = make_instance(
        equal_weight_frame(3),
        [("best", [5, 5, 5]), ("b", [1, 4, 2]), ("c", [0, 5, 1])],
    )
    for p, q in [(0, 0), (1, 0), (1, 1), (Fraction(3, 5), Fraction(2, 5))]:
        res = rank_outranking(inst, p=p, q=q)
        assert res.priorities["best"] == 1


def test_outranking_identical_alternatives_share_priority():
    inst = make_instance(
        equal_weight_frame(2), [("a", [2, 3]), ("b", [2, 3]), ("c", [0, 0])]
    )
    res = rank_outranking(inst)
    assert res.priorities["a"] == res.priorities["b"] == 1


def _oracle_outranking_layers(inst, p, q):
    """Independent path: explicit C/D matrices, reachability SCC, peeling."""
    norm = oracle_normalize_estimates(inst.frame, [e for _, e in inst.alternatives])
    w = inst.frame.weights
    n = len(norm)
    edges = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            c = sum(wk for wk, a, b in zip(w, norm[i], norm[j]) if a >= b)
            d = max([b - a for a, b in zip(norm[i], norm[j])] + [Fraction(0)])
            if c >= p and d <= q:
                edges.add((i, j))

    def reaches(s, t):
        seen, stack = set(), [s]
        while stack:
            u = stack.pop()
            if u == t:
                return True
            for v in range(n):
                if (u, v) in edges and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    comp = {}
    for i in range(n):
        comp[i] = frozenset(
            j for j in range(n) if (reaches(i, j) and reaches(j, i)) or i == j
        )
    layers = {}
    remaining = set(comp.values())
    level = 1
    while remaining:
        sources = {
            c
            for c in remaining
            if not any(
                (i, j) in edges
                for other in remaining
                if other != c
                for i in other
                for j in c
            )
        }
        for c in sources:
            layers[c] = level
        remaining -= sources
        level += 1
    return {inst.ids[i]: layers[comp[i]] for i in range(n)}


def test_outranking_matches_oracle_on_four_alternatives():
    frame = equal_weight_frame(2)
    inst = make_instance(
        frame, [("a", [4, 4]), ("b", [4, 0]), ("c", [0, 4]), ("d", [1, 1])]
    )
    p, q = Fraction(3, 5), Fraction(2, 5)
    res = rank_outranking(inst, p=p, q=q)
    assert res.priorities == _oracle_outranking_layers(inst, p, q)


def test_outranking_matches_oracle_on_random_instances():
    rng = random.Random(5)
    for _ in range(40):
        inst = random_instance(rng)
        p = Fraction(rng.randint(0, 10), 10)
        q = Fraction(rng.randint(0, 10), 10)
        res = rank_outranking(inst, p=p, q=q)
        assert res.priorities == _oracle_outranking_layers(inst, p, q)


def test_ideal_point_extremes():
    inst = make_instance(
        equal_weight_frame(2), [("top", [9, 9]), ("low", [0, 0]), ("mid", [9, 0])]
    )
    res = rank_ideal_point(inst)
    assert res.scores["top"] == pytest.approx(1.0, abs=1e-9)
    assert res.scores["low"] == pytest.approx(0.0, abs=1e-9)
    assert res.priorities["top"] == 1


def test_ideal_point_asymmetric_triangle_matches_distance_oracle():
    inst = make_instance(
        equal_weight_frame(2), [("a", [1, 0]), ("b", [0, 1]), ("c", ["0.6", "0.6"])]
    )
    res = rank_ideal_point(inst)
    # oracle: direct distance arithmetic on the normalized triangle
    assert res.scores["a"] == pytest.approx(0.5, abs=1e-9)
    assert res.scores["b"] == pytest.approx(0.5, abs=1e-9)
    d_plus = math.sqrt(2 * 0.4**2)
    d_minus = math.sqrt(2 * 0.6**2)
    assert res.scores["c"] == pytest.approx(d_minus / (d_plus + d_minus), abs=1e-9)
    assert res.scores["c"] == pytest.approx(0.6, abs=1e-9)
    assert res.priorities == {"c": 1, "a": 2, "b": 2}


#: the float tolerance within which rank_ideal_point used to tie scores
TOLERANCE = 1e-9


def test_ideal_point_orders_near_ties_exactly():
    # x and y score 0.5 and 0.49999999997 (float), within 1e-9, but y is
    # farther from the ideal on the exact squared distances
    inst = make_instance(equal_weight_frame(2), [
        ("x", [50000, 50000]), ("y", [50001, 49999]), ("a", [100000, 0]), ("b", [0, 99999]), ("lo", [0, 0]),
    ])
    res = rank_ideal_point(inst)
    assert res.priorities == {"x": 1, "y": 2, "a": 3, "b": 3, "lo": 4}
    assert abs(res.scores["x"] - res.scores["y"]) < TOLERANCE
    # at 10**9 the two float scores are the same float
    n = 10**9
    inst = make_instance(equal_weight_frame(2), [
        ("x", [n, n]), ("y", [n + 1, n - 1]), ("a", [2 * n, 0]), ("b", [0, 2 * n - 1]), ("lo", [0, 0]),
    ])
    res = rank_ideal_point(inst)
    assert res.scores["x"] == res.scores["y"]
    assert res.priorities == {"x": 1, "y": 2, "a": 3, "b": 3, "lo": 4}


def float_ideal_priorities(inst):
    """rank_ideal_point's priorities as they were: its float scores in
    descending order, a score within TOLERANCE of its level's first tying."""
    scores = rank_ideal_point(inst).scores
    priorities, level, prev = {}, 0, None
    for aid in sorted(scores, key=lambda a: (-scores[a], a)):
        if prev is None or prev - scores[aid] > TOLERANCE:
            level, prev = level + 1, scores[aid]
        priorities[aid] = level
    return priorities


def test_ideal_point_keeps_the_float_order_away_from_near_ties():
    # the exact closeness orders as the float scores do wherever no two
    # unequal scores come within the old tolerance
    rng = random.Random(181)
    compared = 0
    for t in range(400):
        k, n = rng.randint(1, 4), rng.randint(1, 12)
        rows = [[_sweep_number(rng) for _ in range(k)] for _ in range(n)]
        if n > 2 and t % 3 == 0:
            rows[1] = rows[0]
        inst = make_instance(_sweep_frame(rng, k), [(f"a{i}", row) for i, row in enumerate(rows)])
        scores = sorted(rank_ideal_point(inst).scores.values())
        if any(0 < b - a <= TOLERANCE for a, b in zip(scores, scores[1:])):
            continue
        assert rank_ideal_point(inst).priorities == float_ideal_priorities(inst)
        compared += 1
    assert compared > 350


def test_all_identical_alternatives_score_half_in_ideal_point():
    inst = make_instance(equal_weight_frame(2), [("a", [3, 3]), ("b", [3, 3])])
    res = rank_ideal_point(inst)
    assert res.scores == {"a": 0.5, "b": 0.5}
    assert res.priorities == {"a": 1, "b": 1}


@pytest.mark.parametrize("method", ALL_METHODS)
def test_dominance_implies_no_worse_priority(method):
    rng = random.Random(31)
    for _ in range(30):
        inst = random_instance(rng)
        norm = oracle_normalize_estimates(inst.frame, [e for _, e in inst.alternatives])
        res = method(inst)
        ids = inst.ids
        for i in range(len(ids)):
            for j in range(len(ids)):
                if i != j and dominates(norm[i], norm[j]):
                    if method is rank_pareto_layers:
                        assert res.priorities[ids[i]] < res.priorities[ids[j]]
                    else:
                        assert res.priorities[ids[i]] <= res.priorities[ids[j]]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_priorities_are_dense_and_score_consistent(method):
    rng = random.Random(37)
    for _ in range(25):
        inst = random_instance(rng)
        res = method(inst)
        levels = set(res.priorities.values())
        assert levels == set(range(1, max(levels) + 1))
        for a in res.priorities:
            for b in res.priorities:
                if res.scores[a] > res.scores[b]:
                    assert res.priorities[a] <= res.priorities[b]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_alternative_order_never_matters(method):
    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng)
        shuffled = list(inst.alternatives)
        rng.shuffle(shuffled)
        inst2 = RankingInstance(inst.frame, tuple(shuffled))
        assert method(inst).priorities == method(inst2).priorities


def test_equal_weight_utility_invariant_under_criterion_reordering():
    rng = random.Random(43)
    for _ in range(20):
        k = rng.randint(2, 4)
        frame = equal_weight_frame(k)
        alts = [(f"a{i}", [rng.randint(0, 9) for _ in range(k)]) for i in range(6)]
        perm = list(range(k))
        rng.shuffle(perm)
        swapped = [(a, [v[p] for p in perm]) for a, v in alts]
        r1 = rank_utility(make_instance(frame, alts))
        r2 = rank_utility(make_instance(frame, swapped))
        assert r1.priorities == r2.priorities


# ------------------------------------------- Fraction/closure outranking oracle


def _closure_scc(n, edge):
    """Components via transitive closure, O(n^3)."""
    reach = [row[:] for row in edge]
    for i in range(n):
        reach[i][i] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    comp_of = [-1] * n
    comps = []
    for i in range(n):
        if comp_of[i] >= 0:
            continue
        members = [j for j in range(n) if reach[i][j] and reach[j][i]]
        for j in members:
            comp_of[j] = len(comps)
        comps.append(members)
    return comps


def _fraction_outranking(inst, p, q):
    """The outranking definition run on normalized Fractions, as written."""
    p, q = Fraction(p), Fraction(q)
    norm = oracle_normalize_estimates(inst.frame, [e for _, e in inst.alternatives])
    weights = inst.frame.weights
    n = len(norm)
    edge = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            conc = sum(
                (w for w, a, b in zip(weights, norm[i], norm[j]) if a >= b),
                Fraction(0),
            )
            disc = max(
                (b - a for a, b in zip(norm[i], norm[j])), default=Fraction(0)
            )
            disc = max(disc, Fraction(0))
            edge[i][j] = conc >= p and disc <= q
    comps = _closure_scc(n, edge)
    comp_of = {i: c for c, members in enumerate(comps) for i in members}
    preds = [set() for _ in comps]
    for i in range(n):
        for j in range(n):
            if edge[i][j] and comp_of[i] != comp_of[j]:
                preds[comp_of[j]].add(comp_of[i])
    layer = [0] * len(comps)
    pending = set(range(len(comps)))
    while pending:
        ready = [c for c in pending if all(d not in pending for d in preds[c])]
        for c in ready:
            layer[c] = 1 + max((layer[d] for d in preds[c]), default=0)
        pending -= set(ready)
    priorities = {
        aid: layer[comp_of[i]] for i, (aid, _) in enumerate(inst.alternatives)
    }
    return priorities, {aid: -lvl for aid, lvl in priorities.items()}


def _sweep_number(rng):
    r = rng.random()
    if r < 0.4:
        return rng.randint(-5, 9)
    if r < 0.8:
        return Fraction(rng.randint(-20, 40), rng.choice([1, 2, 3, 4, 6, 7, 10]))
    return rng.choice([0, 1, 2])


def _sweep_frame(rng, k):
    weights = [rng.choice([0, 0, 1, 2, 3, Fraction(1, 3), Fraction(5, 7)]) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    directions = [rng.choice((Direction.MAXIMIZE, Direction.MINIMIZE)) for _ in range(k)]
    return CriteriaFrame(
        tuple(Criterion(f"c{i}", d, w) for i, (d, w) in enumerate(zip(directions, weights)))
    )


def test_outranking_equals_fraction_oracle_sweep():
    rng = random.Random(71)
    thresholds = [0, 1, Fraction(1, 2), Fraction(3, 5), Fraction(2, 7)]
    for t in range(300):
        k = rng.choice([1, 2, 3, 4, 5, 20]) if t % 4 else rng.randint(1, 20)
        n = rng.choice([1, 2, 3, 5, 8, 13])
        constant = rng.random() < 0.3  # every other criterion constant
        alts = [
            (f"a{i}", [7 if constant and c % 2 else _sweep_number(rng) for c in range(k)])
            for i in range(n)
        ]
        inst = make_instance(_sweep_frame(rng, k), alts)
        if t < 40:  # each (p, q) in {0, 1} x {0, 1}, ten times
            p, q = t % 2, t // 2 % 2
        else:
            p, q = rng.choice(thresholds), rng.choice(thresholds)
        res = rank_outranking(inst, p=p, q=q)
        assert (res.priorities, res.scores) == _fraction_outranking(inst, p, q)


def pair_loop_successors(inst, p, q):
    """rank_outranking's successor lists as its pair loop built them: for
    every ordered pair, a loop over the criteria on the oriented ints."""
    p, q = Fraction(p), Fraction(q)
    cols = [as_ints(col) for col in zip(*(oracle_adjusted(inst.frame, est) for _, est in inst.alternatives))]
    limits = [q.numerator * (max(col) - min(col)) for col in cols]
    rows = [tuple(x * q.denominator for x in row) for row in zip(*cols)]
    weights = as_ints(list(inst.frame.weights))
    need = p.numerator * sum(weights)
    crits = list(zip(weights, limits))
    succ = [[] for _ in rows]
    for i, row_a in enumerate(rows):
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
                    succ[i].append(j)
    return succ


def test_successor_masks_equal_the_pair_loop():
    # ints and Fractions, max and min criteria, zero weights, constant
    # columns, repeated rows; p and q at 0, 1 and non-decimal fractions
    rng = random.Random(191)
    thresholds = [0, 1, Fraction(1, 2), Fraction(3, 5), Fraction(2, 7), Fraction(1, 3), Fraction(9, 10)]
    for t in range(400):
        k = rng.randint(1, 10)
        n = rng.randint(1, 60) if t % 5 == 0 else rng.randint(1, 12)
        constant = rng.randrange(k) if rng.random() < 0.3 else None
        rows = [[7 if c == constant else _sweep_number(rng) for c in range(k)] for _ in range(n)]
        if n > 2 and rng.random() < 0.3:
            rows[-1] = rows[1]
        inst = make_instance(_sweep_frame(rng, k), [(f"a{i}", row) for i, row in enumerate(rows)])
        p, q = (t % 2, t // 2 % 2) if t < 40 else (rng.choice(thresholds), rng.choice(thresholds))
        masks = _successor_masks(_columns(inst), as_ints(list(inst.frame.weights)), Fraction(p), Fraction(q))
        got = [[j for j in range(n) if mask >> j & 1] for mask in masks]
        assert got == pair_loop_successors(inst, p, q), (t, p, q)


def test_successor_masks_count_large_weights():
    # weights of many bits carry through every plane of the counter
    rng = random.Random(193)
    for _ in range(200):
        k, n = rng.randint(1, 6), rng.randint(1, 20)
        weights = [rng.choice([0, 1, 2**20 - 1, 2**33 + 5, 3**15]) for _ in range(k)]
        weights[0] = weights[0] or 1
        frame = CriteriaFrame(tuple(Criterion(f"c{i}", weight=w) for i, w in enumerate(weights)))
        inst = make_instance(frame, [(f"a{i}", [rng.randint(0, 6) for _ in range(k)]) for i in range(n)])
        p, q = Fraction(rng.randint(0, 20), 20), Fraction(rng.randint(0, 3), 3)
        masks = _successor_masks(_columns(inst), as_ints(list(inst.frame.weights)), p, q)
        assert [[j for j in range(n) if m >> j & 1] for m in masks] == pair_loop_successors(inst, p, q)


# ------------------------------- orientation against the direction branches


def _oracle_pareto_layers(inst):
    """Pareto layers peeled by all pairs of normalized rows."""
    norm = oracle_normalize_estimates(inst.frame, [e for _, e in inst.alternatives])
    layer, remaining, current = {}, set(range(len(norm))), 1
    while remaining:
        front = {i for i in remaining if not any(dominates(norm[j], norm[i]) for j in remaining)}
        layer.update(dict.fromkeys(front, current))
        remaining -= front
        current += 1
    return {aid: layer[i] for i, aid in enumerate(inst.ids)}


def _negated(inst):
    """The instance with every minimized column negated per column, as
    rank_outranking did, under a frame of maximized criteria."""
    flip = [c.direction is Direction.MINIMIZE for c in inst.frame.criteria]
    frame = CriteriaFrame(tuple(Criterion(c.id, weight=c.weight) for c in inst.frame.criteria))
    return make_instance(frame, [(aid, [-v if f else v for v, f in zip(est, flip)]) for aid, est in inst.alternatives])


def test_oriented_ranks_equal_the_direction_branches(monkeypatch):
    # max and min criteria, constant columns, repeated rows, ints and Fractions
    rng = random.Random(83)
    outcomes = {"ok": 0, "oracle error": 0}
    for t in range(400):
        k, n = rng.randint(1, 4), rng.randint(1, 8)
        constant = rng.randrange(k) if rng.random() < 0.3 else None
        rows = [[7 if c == constant else _sweep_number(rng) for c in range(k)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = rows[0]
        inst = make_instance(_sweep_frame(rng, k), [(f"a{i}", row) for i, row in enumerate(rows)])
        assert rank_pareto_layers(inst).priorities == _oracle_pareto_layers(inst)
        p, q = rng.choice([0, Fraction(1, 2), Fraction(3, 5), 1]), rng.choice([0, Fraction(2, 5), 1])
        assert rank_outranking(inst, p, q) == rank_outranking(_negated(inst), p, q)
        # the --oracle dominance check, on priorities drawn at random
        priorities = {aid: rng.randint(1, 3) for aid in inst.ids}
        monkeypatch.setattr(hmmdkit.rank, "rank_utility", lambda _: RankingResult(priorities, {}, "utility"))
        norm = oracle_normalize_estimates(inst.frame, [e for _, e in inst.alternatives])
        violated = any(
            dominates(norm[i], norm[j]) and priorities[a] > priorities[b]
            for i, a in enumerate(inst.ids) for j, b in enumerate(inst.ids)
        )
        try:
            report_rank(RankProblem(inst, p, q), "utility", None, True)
        except OracleError:
            assert violated
            outcomes["oracle error"] += 1
        else:
            assert not violated
            outcomes["ok"] += 1
    assert min(outcomes.values()) > 100, outcomes


# ---------------------------------------------------------------- Tarjan SCC


def test_strongly_connected_equals_closure_on_random_digraphs():
    rng = random.Random(79)
    for _ in range(150):
        n = rng.randint(1, 25)
        density = rng.choice([0.05, 0.1, 0.2, 0.5])
        edge = [[i != j and rng.random() < density for j in range(n)] for i in range(n)]
        succ = [[j for j in range(n) if edge[i][j]] for i in range(n)]
        comps = _strongly_connected(succ)
        assert sorted(sorted(c) for c in comps) == sorted(_closure_scc(n, edge))
        position = {i: c for c, members in enumerate(comps) for i in members}
        for i in range(n):
            for j in succ[i]:
                # sinks first: an edge never points to a later component
                assert position[j] <= position[i]


def test_strongly_connected_long_chain_and_cycle_stay_iterative():
    n = 5000
    chain = [[i + 1] for i in range(n - 1)] + [[]]
    comps = _strongly_connected(chain)
    assert comps == [[i] for i in range(n - 1, -1, -1)]
    cycle = [[(i + 1) % n] for i in range(n)]
    comps = _strongly_connected(cycle)
    assert len(comps) == 1 and sorted(comps[0]) == list(range(n))
