"""Agglomerative hierarchical clustering over a dissimilarity matrix.

Single, complete and average (UPGMA) linkage; dendrogram output plus
k-cut extraction. Ties between candidate merges break on the clusters'
sorted member ids, so results are reproducible.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from enum import Enum
from fractions import Fraction

from .core import OracleError, ValidationError, frozen
from .exact import Number, check_dissimilarities


class Linkage(Enum):
    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"


@frozen
class DissimilarityMatrix:
    ids: tuple[str, ...]
    d: tuple[tuple[Number, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "d", tuple(tuple(row) for row in self.d))
        check_dissimilarities(self.ids, self.d)


@frozen
class Merge:
    left: tuple[str, ...]
    right: tuple[str, ...]
    height: Number


@frozen
class Dendrogram:
    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]


class _Mean:
    """The exact mean of int or Fraction entries, ``total / count``, kept
    unreduced as ``num / den``: two compare by cross-multiplication, and a
    Fraction is built only for a merge's height. Only a matrix without
    floats uses it, so a _Mean never meets a float."""

    __slots__ = ("num", "den")

    def __init__(self, total: int | Fraction, count: int) -> None:
        self.num, self.den = total.numerator, total.denominator * count

    def __eq__(self, other: _Mean) -> bool:
        return self.num * other.den == other.num * self.den

    def __lt__(self, other: _Mean) -> bool:
        return self.num * other.den < other.num * self.den

    def __float__(self) -> float:
        return self.num / self.den


def _fraction_mean(total: Number, count: int) -> Number:
    """The mean of a cross list: a float if an entry is one, else exact."""
    return total / count if isinstance(total, float) else Fraction(total) / count


def _heap_key(
    m: DissimilarityMatrix,
    idx: dict[str, int],
    a: tuple[str, ...],
    b: tuple[str, ...],
    linkage: Linkage,
    mean: Callable,
) -> tuple:
    """``(float distance, distance, a, b)``. Rounding to float keeps order,
    so the exact distance decides only between equal floats, and the keys
    sort as ``(distance, a, b)`` does, only faster. An average is
    ``mean(total, count)`` of the cross entries."""
    cols = [idx[y] for y in b]
    cross = [row[j] for row in (m.d[idx[x]] for x in a) for j in cols]
    if linkage is Linkage.SINGLE:
        dist = min(cross)
    elif linkage is Linkage.COMPLETE:
        dist = max(cross)
    else:
        dist = mean(sum(cross[1:], cross[0]), len(cross))
    try:
        fast = float(dist)
    except OverflowError:  # an int or Fraction beyond float range
        fast = math.inf
    return fast, dist, a, b


def build_dendrogram(
    m: DissimilarityMatrix, linkage: Linkage = Linkage.SINGLE
) -> Dendrogram:
    """Merge the closest pair of active clusters until one remains.

    The distance of two clusters does not change while both stay active,
    so each pair's is computed once, when the newer of the two forms, and
    kept in a heap under the key ``(distance, a, b)`` with ``a < b`` (see
    ``_heap_key``). The smallest key whose clusters are both still active
    is the next merge, as an all-pairs scan would find it.
    """
    idx = {x: i for i, x in enumerate(m.ids)}
    singles = [tuple([x]) for x in sorted(m.ids)]
    floats = any(isinstance(x, float) for row in m.d for x in row)
    mean = _fraction_mean if floats else _Mean
    heap = [
        _heap_key(m, idx, a, b, linkage, mean)
        for i, a in enumerate(singles)
        for b in singles[i + 1:]
    ]
    heapq.heapify(heap)
    active = set(singles)
    merges: list[Merge] = []
    while len(active) > 1:
        _, dist, a, b = heapq.heappop(heap)
        if a not in active or b not in active:
            continue
        merges.append(Merge(a, b, Fraction(dist.num, dist.den) if dist.__class__ is _Mean else dist))
        active -= {a, b}
        new = tuple(sorted(a + b))
        for c in active:
            lo, hi = (c, new) if c < new else (new, c)
            heapq.heappush(heap, _heap_key(m, idx, lo, hi, linkage, mean))
        active.add(new)
    return Dendrogram(leaves=tuple(m.ids), merges=tuple(merges))


def cut_dendrogram(dend: Dendrogram, k: int) -> list[tuple[str, ...]]:
    """Partition into exactly k blocks: replay all but the last k-1 merges."""
    n = len(dend.leaves)
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside 1..{n}")
    blocks = {tuple([x]) for x in dend.leaves}
    for merge in dend.merges[: n - k]:
        blocks.discard(merge.left)
        blocks.discard(merge.right)
        blocks.add(tuple(sorted(merge.left + merge.right)))
    return sorted(blocks)


# ------------------------------------------------ report and file format


@frozen
class ClusterProblem:
    matrix: DissimilarityMatrix
    linkage: Linkage
    k: int | None


def report_cluster(problem, method, weights, oracle):
    """``hmmdkit cluster``: the oracle checks that every cut partitions the ids."""
    dend = build_dendrogram(problem.matrix, Linkage(method))
    solution = {
        "merges": [{"left": m.left, "right": m.right, "height": m.height} for m in dend.merges],
        "partition": None if problem.k is None else cut_dendrogram(dend, problem.k),
    }
    diagnostics = {}
    if oracle:
        for k in range(1, len(problem.matrix.ids) + 1):
            blocks = cut_dendrogram(dend, k)
            flat = sorted(x for b in blocks for x in b)
            if flat != sorted(problem.matrix.ids) or len(blocks) != k:
                raise OracleError(f"cut at k={k} is not a partition")
        diagnostics["oracle"] = "ok (all cuts partition the ids)"
    return solution, diagnostics


def codecs() -> tuple:
    """The cluster file's payload codec, its report's solution codec and
    the body lines of its text report (``probio.OWNERS``)."""
    from .exact import MATRIX, NUM, render_number
    from .probio import ID_LIST, IDS, INT, Record, array, choice, doc, fail, nullable, wrap

    def build(ids: tuple, matrix: tuple, linkage: Linkage, k: int | None) -> ClusterProblem:
        with wrap(".matrix"):
            m = DissimilarityMatrix(ids, matrix)
        if k is not None and not 1 <= k <= len(ids):
            fail(f"k={k} outside 1..{len(ids)}", ".k")
        return ClusterProblem(m, linkage, k)

    payload = Record(
        ("ids", IDS, "matrix.ids"),
        ("matrix", MATRIX, "matrix.d"),
        ("linkage", choice(Linkage), "linkage", Linkage.SINGLE),
        ("k", INT, "k", None),
        build=build,
    )
    solution = doc(
        ("merges", array(doc(("left", ID_LIST), ("right", ID_LIST), ("height", NUM)))),
        ("partition", nullable(array(ID_LIST))),
    )

    def text(sol: dict) -> list[str]:
        lines = []
        for merge in sol["merges"]:
            lines.append(
                "merge {" + ", ".join(merge["left"]) + "} + {"
                + ", ".join(merge["right"]) + "} at "
                + render_number(merge["height"])
            )
        if sol.get("partition") is not None:
            for i, block in enumerate(sol["partition"], 1):
                lines.append(f"block {i}: " + ", ".join(block))
        return lines

    return payload, solution, text
