import math
import random

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
