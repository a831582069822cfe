"""Agglomerative hierarchical clustering over a dissimilarity matrix.

Single, complete and average (UPGMA) linkage; dendrogram output plus
k-cut extraction. Ties between candidate merges break on the clusters'
sorted member ids, so results are reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .core import Number, ValidationError, as_frac, check_dissimilarities, frozen


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

    @classmethod
    def from_points(
        cls, ids: Sequence[str], points: Sequence[Sequence[Number]]
    ) -> "DissimilarityMatrix":
        """Euclidean distances between feature vectors (float entries)."""
        if len(ids) != len(points):
            raise ValidationError("one point per id required")
        pts = [[float(as_frac(x)) for x in p] for p in points]
        n = len(pts)
        d = [
            tuple(
                math.dist(pts[i], pts[j]) if i != j else 0 for j in range(n)
            )
            for i in range(n)
        ]
        return cls(tuple(ids), tuple(d))

    def value(self, a: str, b: str) -> Number:
        ia, ib = self.ids.index(a), self.ids.index(b)
        return self.d[ia][ib]


@frozen
class Merge:
    left: tuple[str, ...]
    right: tuple[str, ...]
    height: Number


@frozen
class Dendrogram:
    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]


def _linkage_distance(
    m: DissimilarityMatrix,
    a: tuple[str, ...],
    b: tuple[str, ...],
    linkage: Linkage,
) -> Number:
    idx = {x: i for i, x in enumerate(m.ids)}
    cross = [m.d[idx[x]][idx[y]] for x in a for y in b]
    if linkage is Linkage.SINGLE:
        return min(cross)
    if linkage is Linkage.COMPLETE:
        return max(cross)
    total = sum(cross[1:], cross[0])
    if isinstance(total, float):
        return total / len(cross)
    return Fraction(total) / len(cross)  # exact mean for int/Fraction entries


def build_dendrogram(
    m: DissimilarityMatrix, linkage: Linkage = Linkage.SINGLE
) -> Dendrogram:
    """Merge the closest pair of active clusters until one remains."""
    active: list[tuple[str, ...]] = [tuple([x]) for x in sorted(m.ids)]
    merges: list[Merge] = []
    while len(active) > 1:
        best = None
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                a, b = sorted((active[i], active[j]))
                dist = _linkage_distance(m, a, b, linkage)
                key = (dist, a, b)
                if best is None or key < best:
                    best = key
        dist, a, b = best
        merges.append(Merge(a, b, dist))
        active = [c for c in active if c != a and c != b]
        active.append(tuple(sorted(a + b)))
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
