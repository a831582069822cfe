import math
import random
from fractions import Fraction

import pytest

from hmmdkit.cluster import DissimilarityMatrix
from hmmdkit.core import GuardExceeded, ValidationError
from hmmdkit.route import (
    Tour,
    TspInstance,
    tour_length,
    tsp_brute_force,
    tsp_nearest_neighbor,
    tsp_two_opt,
)


def from_points(ids, pts):
    n = len(ids)
    d = tuple(
        tuple(math.dist(pts[i], pts[j]) if i != j else 0 for j in range(n))
        for i in range(n)
    )
    return TspInstance(tuple(ids), d)


def random_cities(rng, n):
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    return from_points([f"c{i}" for i in range(n)], pts)


UNIT_SQUARE = from_points(["sw", "se", "ne", "nw"], [(0, 0), (1, 0), (1, 1), (0, 1)])


def test_instance_validation():
    with pytest.raises(ValidationError):
        TspInstance(("a", "b"), ((0, 1), (2, 0)))
    with pytest.raises(ValidationError):
        TspInstance(("a", "b"), ((1, 1), (1, 0)))
    with pytest.raises(ValidationError):
        TspInstance(("a", "b"), ((0, -1), (-1, 0)))


#: (ids, matrix, message) one malformed matrix per check, plus no ids at all
MALFORMED = [
    (("a", "a"), ((0, 1), (1, 0)), "duplicate id 'a'"),
    (("a", "b"), ((0, 1),), "matrix must be 2x2"),
    (("a", "b"), ((1, 1), (1, 0)), "diagonal entry d[0][0] must be 0"),
    (("a", "b"), ((0, -1), (-1, 0)), "negative dissimilarity d[0][1]"),
    (("a", "b"), ((0, 1), (2, 0)), "matrix must be symmetric: d[0][1] != d[1][0]"),
    ((), (), "a dissimilarity matrix needs at least one id"),
]


@pytest.mark.parametrize(
    "ids, d, message", MALFORMED, ids=["duplicate", "shape", "diagonal", "negative", "asymmetric", "empty"]
)
def test_tsp_and_cluster_reject_a_malformed_matrix_alike(ids, d, message):
    for cls in (TspInstance, DissimilarityMatrix):
        with pytest.raises(ValidationError) as exc:
            cls(ids, d)
        assert str(exc.value) == message


def test_three_cities_any_tour_is_the_triangle():
    inst = from_points(["a", "b", "c"], [(0, 0), (3, 0), (0, 4)])
    expected = 3 + 4 + 5
    nn = tsp_nearest_neighbor(inst, "a")
    assert nn.length == pytest.approx(expected, abs=1e-9)
    bf = tsp_brute_force(inst)
    assert bf.length == pytest.approx(expected, abs=1e-9)


def test_unit_square_nearest_neighbor_walks_perimeter():
    tour = tsp_nearest_neighbor(UNIT_SQUARE, "sw")
    assert tour.length == pytest.approx(4.0, abs=1e-9)


def test_unknown_start_city():
    with pytest.raises(ValidationError):
        tsp_nearest_neighbor(UNIT_SQUARE, "center")


def test_two_opt_uncrosses_square():
    crossing = Tour(
        order=("sw", "ne", "se", "nw"),
        length=tour_length(UNIT_SQUARE, [0, 2, 1, 3]),
    )
    improved = tsp_two_opt(UNIT_SQUARE, crossing)
    assert improved.length == pytest.approx(4.0, abs=1e-9)


def test_two_opt_leaves_optimal_tour_unchanged():
    perimeter = Tour(
        order=("sw", "se", "ne", "nw"),
        length=tour_length(UNIT_SQUARE, [0, 1, 2, 3]),
    )
    out = tsp_two_opt(UNIT_SQUARE, perimeter)
    assert out.order == perimeter.order


def test_two_opt_rejects_bad_initial_tour():
    with pytest.raises(ValidationError):
        tsp_two_opt(UNIT_SQUARE, Tour(order=("sw", "sw", "ne", "nw"), length=0))


def test_brute_force_square_and_guard(monkeypatch):
    assert tsp_brute_force(UNIT_SQUARE).length == pytest.approx(4.0, abs=1e-9)
    rng = random.Random(3)
    with pytest.raises(GuardExceeded, match=r"^11 cities exceed guard 10$"):
        tsp_brute_force(random_cities(rng, 11))
    monkeypatch.setenv("HMMD_KIT_GUARD", "3")
    with pytest.raises(GuardExceeded, match=r"^4 cities exceed guard 3$"):
        tsp_brute_force(UNIT_SQUARE)
    monkeypatch.setenv("HMMD_KIT_GUARD", "4")
    assert tsp_brute_force(UNIT_SQUARE).length == pytest.approx(4.0, abs=1e-9)


def test_heuristics_never_beat_brute_force():
    rng = random.Random(113)
    for _ in range(20):
        inst = random_cities(rng, 8)
        opt = tsp_brute_force(inst)
        nn = tsp_nearest_neighbor(inst, "c0")
        two = tsp_two_opt(inst, nn)
        assert sorted(nn.order) == sorted(inst.ids)
        assert nn.length >= opt.length - 1e-9
        assert two.length >= opt.length - 1e-9
        assert two.length <= nn.length + 1e-9


def test_nn_plus_two_opt_within_ten_percent_usually():
    rng = random.Random(127)
    hits = 0
    for _ in range(100):
        inst = random_cities(rng, 9)
        opt = tsp_brute_force(inst)
        two = tsp_two_opt(inst, tsp_nearest_neighbor(inst, "c0"))
        if two.length <= 1.10 * opt.length + 1e-9:
            hits += 1
    assert hits >= 90


def test_reported_length_recomputes_exactly():
    rng = random.Random(131)
    for _ in range(10):
        inst = random_cities(rng, 7)
        for tour in (
            tsp_nearest_neighbor(inst, "c2"),
            tsp_two_opt(inst, tsp_nearest_neighbor(inst, "c2")),
            tsp_brute_force(inst),
        ):
            idx = [inst.ids.index(c) for c in tour.order]
            assert tour.length == tour_length(inst, idx)


def reference_two_opt(inst, initial):
    """tsp_two_opt as it was written first: every pair reads its four
    distances through the instance and picks its improvement test by the
    type of its length change."""
    order = [inst.ids.index(c) for c in initial.order]
    n = len(order)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                if j - i + 1 >= n - 1:
                    continue
                a, b = order[i - 1], order[i]
                c, e = order[j], order[(j + 1) % n]
                delta = inst.dist[a][c] + inst.dist[b][e] - inst.dist[a][b] - inst.dist[c][e]
                if isinstance(delta, Fraction):
                    improving = delta < 0
                else:
                    improving = delta < -1e-12
                if improving:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
                    break
            if improved:
                break
    return Tour(tuple(inst.ids[i] for i in order), tour_length(inst, order))


#: entry kinds of the 2-opt sweep: ints, Fractions, floats, tie-heavy ints,
#: float noise around ints, and ints, Fractions and floats mixed in one matrix
TWO_OPT_ENTRIES = (
    lambda rng: rng.randint(1, 50),
    lambda rng: Fraction(rng.randint(1, 40), rng.randint(1, 7)),
    lambda rng: rng.uniform(0.5, 10),
    lambda rng: rng.randint(1, 3),
    lambda rng: rng.randint(1, 4) + rng.choice([0, 1e-13, -1e-13, 3e-12]),
    lambda rng: rng.choice([rng.randint(1, 6), Fraction(rng.randint(1, 12), 2), rng.randint(2, 12) / 2,
                            Fraction(1, 10**13) + 2]),
)


def test_two_opt_equals_the_reference_loop():
    rng = random.Random(197)
    for t in range(300):
        n = rng.randint(3, 14)
        entry = TWO_OPT_ENTRIES[t % len(TWO_OPT_ENTRIES)]
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = entry(rng)
        inst = TspInstance(tuple(f"c{i}" for i in range(n)), tuple(map(tuple, d)))
        order = list(inst.ids)
        rng.shuffle(order)
        start = Tour(tuple(order), 0)
        got, want = tsp_two_opt(inst, start), reference_two_opt(inst, start)
        assert got == want
        assert type(got.length) is type(want.length)
