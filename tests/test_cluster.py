import heapq
import math
import random
from fractions import Fraction

import pytest

from hmmdkit.cluster import (
    DissimilarityMatrix,
    Linkage,
    build_dendrogram,
    cut_dendrogram,
)
from hmmdkit.core import ValidationError


def matrix(ids, entries):
    n = len(ids)
    d = [[0] * n for _ in range(n)]
    for (a, b), v in entries.items():
        i, j = ids.index(a), ids.index(b)
        d[i][j] = d[j][i] = v
    return DissimilarityMatrix(tuple(ids), tuple(tuple(r) for r in d))


THREE = matrix(["p1", "p2", "p3"], {("p1", "p2"): 1, ("p1", "p3"): 5, ("p2", "p3"): 4})


def test_matrix_validation():
    with pytest.raises(ValidationError):
        DissimilarityMatrix(("a", "b"), ((0, 1), (2, 0)))
    with pytest.raises(ValidationError):
        DissimilarityMatrix(("a", "b"), ((0, -1), (-1, 0)))
    with pytest.raises(ValidationError):
        DissimilarityMatrix(("a", "b"), ((1, 1), (1, 0)))
    with pytest.raises(ValidationError):
        DissimilarityMatrix(("a", "a"), ((0, 1), (1, 0)))


def test_single_point_has_no_merges():
    dend = build_dendrogram(matrix(["only"], {}))
    assert dend.merges == ()
    assert cut_dendrogram(dend, 1) == [("only",)]


def test_three_point_single_linkage_merge_order():
    dend = build_dendrogram(THREE, Linkage.SINGLE)
    assert dend.merges == (
        type(dend.merges[0])(("p1",), ("p2",), 1),
        type(dend.merges[0])(("p1", "p2"), ("p3",), 4),
    )


def test_three_point_complete_linkage_second_height():
    dend = build_dendrogram(THREE, Linkage.COMPLETE)
    assert dend.merges[0].height == 1
    assert dend.merges[1].height == 5


def test_three_point_average_linkage():
    dend = build_dendrogram(THREE, Linkage.AVERAGE)
    assert dend.merges[1].height == Fraction(9, 2)


def test_cut_extremes_and_forced_two_blocks():
    dend = build_dendrogram(THREE)
    assert cut_dendrogram(dend, 1) == [("p1", "p2", "p3")]
    assert cut_dendrogram(dend, 3) == [("p1",), ("p2",), ("p3",)]
    assert cut_dendrogram(dend, 2) == [("p1", "p2"), ("p3",)]
    with pytest.raises(ValidationError):
        cut_dendrogram(dend, 0)
    with pytest.raises(ValidationError):
        cut_dendrogram(dend, 4)


def random_matrix(rng, n):
    ids = [f"x{i}" for i in range(n)]
    entries = {
        (ids[i], ids[j]): rng.randint(1, 50)
        for i in range(n)
        for j in range(i + 1, n)
    }
    return matrix(ids, entries)


def _mst_edge_weights(m):
    """Prim's algorithm as an independent oracle."""
    n = len(m.ids)
    if n <= 1:
        return []
    in_tree = {0}
    weights = []
    while len(in_tree) < n:
        best = min(
            (m.d[i][j], j)
            for i in in_tree
            for j in range(n)
            if j not in in_tree
        )
        weights.append(best[0])
        in_tree.add(best[1])
    return sorted(weights)


def test_single_linkage_heights_equal_mst_edge_weights():
    rng = random.Random(71)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(2, 10))
        dend = build_dendrogram(m, Linkage.SINGLE)
        assert sorted(mg.height for mg in dend.merges) == _mst_edge_weights(m)


@pytest.mark.parametrize("linkage", list(Linkage))
def test_merge_heights_nondecreasing(linkage):
    rng = random.Random(73)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(2, 9))
        heights = [mg.height for mg in build_dendrogram(m, linkage).merges]
        assert heights == sorted(heights)


@pytest.mark.parametrize("linkage", list(Linkage))
def test_every_cut_is_a_partition(linkage):
    rng = random.Random(79)
    for _ in range(20):
        n = rng.randint(1, 9)
        m = random_matrix(rng, n)
        dend = build_dendrogram(m, linkage)
        for k in range(1, n + 1):
            blocks = cut_dendrogram(dend, k)
            assert len(blocks) == k
            flat = [x for b in blocks for x in b]
            assert sorted(flat) == sorted(m.ids)
            assert len(set(flat)) == len(flat)


def distinct_matrix(rng, n):
    # distinct pairwise distances so documented tie-breaks never fire
    ids = [f"x{i}" for i in range(n)]
    weights = rng.sample(range(1, 1000), n * (n - 1) // 2)
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    return matrix(ids, dict(zip(pairs, weights)))


def test_relabeling_permutes_but_does_not_restructure():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(2, 8)
        m = distinct_matrix(rng, n)
        mapping = {f"x{i}": f"y{(i + 3) % n}" for i in range(n)}
        perm = [m.ids.index(x) for x in m.ids]
        ids2 = tuple(mapping[x] for x in m.ids)
        m2 = DissimilarityMatrix(ids2, m.d)
        d1 = build_dendrogram(m, Linkage.SINGLE)
        d2 = build_dendrogram(m2, Linkage.SINGLE)
        relabeled = sorted(
            tuple(sorted(mapping[x] for x in mg.left + mg.right))
            for mg in d1.merges
        )
        original = sorted(
            tuple(sorted(mg.left + mg.right)) for mg in d2.merges
        )
        assert relabeled == original


def test_from_points_euclidean():
    """Float entries, as Euclidean distances between points give them."""
    pts = [[0, 0], [3, 4], [0, 1]]
    d = tuple(tuple(math.dist(p, q) for q in pts) for p in pts)
    m = DissimilarityMatrix(("a", "b", "c"), d)
    assert m.d[0][1] == pytest.approx(5.0, abs=1e-9)
    assert m.d[0][2] == pytest.approx(1.0, abs=1e-9)
    first = build_dendrogram(m).merges[0]
    assert (first.left, first.right) == (("a",), ("c",)) and first.height == pytest.approx(1.0, abs=1e-9)


def linkage_distance(m, idx, a, b, linkage):
    """The distance of clusters a and b, from all their cross entries: an
    average of ints or Fractions is an exact Fraction."""
    cross = [m.d[idx[x]][idx[y]] for x in a for y in b]
    if linkage is Linkage.SINGLE:
        return min(cross)
    if linkage is Linkage.COMPLETE:
        return max(cross)
    total = sum(cross[1:], cross[0])
    if isinstance(total, float):
        return total / len(cross)
    return Fraction(total) / len(cross)


def fraction_heap_dendrogram(m, linkage):
    """build_dendrogram as it was before its keys held exact ratios: each
    key is ``(float distance, distance, a, b)`` with the distance from
    linkage_distance, a Fraction for an exact average."""
    from hmmdkit.cluster import Merge

    def key(a, b):
        dist = linkage_distance(m, idx, a, b, linkage)
        try:
            fast = float(dist)
        except OverflowError:
            fast = math.inf
        return fast, dist, a, b

    idx = {x: i for i, x in enumerate(m.ids)}
    singles = [tuple([x]) for x in sorted(m.ids)]
    heap = [key(a, b) for i, a in enumerate(singles) for b in singles[i + 1:]]
    heapq.heapify(heap)
    active = set(singles)
    merges = []
    while len(active) > 1:
        _, dist, a, b = heapq.heappop(heap)
        if a not in active or b not in active:
            continue
        merges.append(Merge(a, b, dist))
        active -= {a, b}
        new = tuple(sorted(a + b))
        for c in active:
            heapq.heappush(heap, key(*sorted((c, new))))
        active.add(new)
    return tuple(merges)


def scanning_dendrogram(m, linkage):
    """build_dendrogram as it was before the heap: every merge rescans all
    pairs of active clusters and recomputes each pair's distance."""
    from hmmdkit.cluster import Merge

    idx = {x: i for i, x in enumerate(m.ids)}
    active = [tuple([x]) for x in sorted(m.ids)]
    merges = []
    while len(active) > 1:
        best = None
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                a, b = sorted((active[i], active[j]))
                key = (linkage_distance(m, idx, a, b, linkage), a, b)
                if best is None or key < best:
                    best = key
        dist, a, b = best
        merges.append(Merge(a, b, dist))
        active = [c for c in active if c != a and c != b]
        active.append(tuple(sorted(a + b)))
    return tuple(merges)


#: entry kinds of the sweep: ints, Fractions, floats, and ints of 1-3 (tie-heavy)
ENTRIES = (
    lambda rng: rng.randint(0, 50),
    lambda rng: Fraction(rng.randint(0, 20), rng.randint(1, 6)),
    lambda rng: rng.random() * 10,
    lambda rng: rng.randint(1, 3),
)
#: and ints, Fractions and halves as floats mixed in one matrix, so float
#: and exact averages tie
MIXED_ENTRIES = ENTRIES + (
    lambda rng: rng.choice([rng.randint(1, 4), Fraction(rng.randint(1, 8), 2), rng.randint(2, 8) / 2]),
)


@pytest.mark.parametrize("linkage", list(Linkage))
def test_heap_equals_the_scanning_oracle(linkage):
    rng = random.Random(131)
    for t in range(1500):
        n = rng.randint(1, 10)
        ids = [f"x{i}" for i in range(n)]
        rng.shuffle(ids)
        entry = ENTRIES[t % len(ENTRIES)]
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = entry(rng)
        m = DissimilarityMatrix(tuple(ids), tuple(map(tuple, d)))
        got, want = build_dendrogram(m, linkage).merges, scanning_dendrogram(m, linkage)
        assert got == want
        assert [type(mg.height) for mg in got] == [type(mg.height) for mg in want]


@pytest.mark.parametrize("linkage", list(Linkage))
def test_exact_ratio_keys_equal_the_fraction_keyed_heap(linkage):
    rng = random.Random(137)
    for t in range(600):
        n = rng.randint(1, 34) if t % 10 == 0 else rng.randint(1, 12)
        ids = [f"x{i}" for i in range(n)]
        rng.shuffle(ids)
        entry = MIXED_ENTRIES[t % len(MIXED_ENTRIES)]
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = entry(rng)
        m = DissimilarityMatrix(tuple(ids), tuple(map(tuple, d)))
        got, want = build_dendrogram(m, linkage).merges, fraction_heap_dendrogram(m, linkage)
        assert got == want
        assert [type(mg.height) for mg in got] == [type(mg.height) for mg in want]


@pytest.mark.parametrize("linkage", list(Linkage))
def test_entries_beyond_float_range_still_order_exactly(linkage):
    big = 10**400
    m = matrix(["a", "b", "c", "d"], {
        ("a", "b"): big, ("a", "c"): big + 1, ("a", "d"): 1,
        ("b", "c"): big + 2, ("b", "d"): big, ("c", "d"): Fraction(3, 2),
    })
    assert build_dendrogram(m, linkage).merges == scanning_dendrogram(m, linkage)
    assert build_dendrogram(m, linkage).merges == fraction_heap_dendrogram(m, linkage)
