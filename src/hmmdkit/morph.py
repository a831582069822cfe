"""The morphological system model and the composition of one node.

A system is a tree whose leaves carry design alternatives with ordinal
priorities (1 = best) and whose internal nodes carry pairwise
compatibility tables between the alternative sets of their children.
Composing one alternative per child yields a quality vector
N(S) = (w; n1, n2, ...): the worst pairwise compatibility inside the
composition plus the count of chosen parts at each priority level.
compose_node keeps the dominance-maximal compositions of one node.
Bottom-up synthesis over the whole tree (``synthesize_tree`` and its
trace) lives in ``synth``, the owner of the morph problem type, and is
imported from there; ``trajectory`` composes one node with this module
alone.

Dominance over quality vectors is intentionally weak: w must not drop and
no prefix of the priority-level counts may lose mass (shifting parts
toward better levels can only help). Two vectors trading w against level
counts stay incomparable, which is what keeps several designs alive.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence

from .core import (
    DEFAULT_COMPAT_SCALE,
    DEFAULT_PRIORITY_SCALE,
    EstimateVector,
    OrdinalScale,
    ValidationError,
    check_guard,
    check_unique,
    dominates,
    frozen,
    non_dominated,
)

MAX_COMBINATIONS = 10**6


@frozen
class DesignAlternative:
    id: str
    priority: int
    estimates: EstimateVector | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("alternative id must be non-empty")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise ValidationError(f"alternative {self.id!r}: priority must be an integer")


@frozen
class MorphNode:
    id: str
    children: tuple["MorphNode", ...] = ()
    alternatives: tuple[DesignAlternative, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        if self.children and self.alternatives:
            raise ValidationError(
                f"node {self.id!r}: carries both children and alternatives"
            )
        if not self.children and not self.alternatives:
            raise ValidationError(
                f"leaf node {self.id!r}: needs at least one design alternative"
            )
        check_unique([da.id for da in self.alternatives], "node {!r}: duplicate alternative id", self.id)
        sized = [da for da in self.alternatives if da.estimates is not None]
        for da in sized[1:]:
            if len(da.estimates) != len(sized[0].estimates):
                raise ValidationError(
                    f"node {self.id!r}: alternative {da.id!r} has {len(da.estimates)} estimates, "
                    f"{sized[0].id!r} has {len(sized[0].estimates)}"
                )

    @property
    def is_leaf(self) -> bool:
        return not self.children


@frozen
class MorphSystem:
    root: MorphNode
    compat: dict[tuple[str, str, str], int]  # (node id, left DA, right DA) -> value
    compat_scale: OrdinalScale = DEFAULT_COMPAT_SCALE
    priority_scale: OrdinalScale = DEFAULT_PRIORITY_SCALE

    def __post_init__(self) -> None:
        object.__setattr__(self, "compat", dict(self.compat))
        nodes: dict[str, MorphNode] = {}
        for node in walk(self.root):
            if node.id in nodes:
                raise ValidationError(f"duplicate node id {node.id!r}")
            nodes[node.id] = node
            for da in node.alternatives:
                if not self.priority_scale.contains(da.priority):
                    raise ValidationError(
                        f"alternative {da.id!r}: priority {da.priority} outside "
                        f"[{self.priority_scale.lo}, {self.priority_scale.hi}]"
                    )
        pairs: dict[str, dict] = {n.id: {} for n in nodes.values() if n.children}
        for (node_id, a, b), value in self.compat.items():
            if node_id not in nodes:
                raise ValidationError(f"compatibility table for unknown node {node_id!r}")
            if (node_id, b, a) in self.compat and a != b:
                raise ValidationError(
                    f"both orientations of pair {a!r}-{b!r} present at node {node_id!r}"
                )
            if not self.compat_scale.contains(value):
                raise ValidationError(
                    f"compatibility {a!r}-{b!r} at node {node_id!r}: {value} outside "
                    f"[{self.compat_scale.lo}, {self.compat_scale.hi}]"
                )
            if node_id not in pairs:
                raise ValidationError(f"compatibility table on leaf node {node_id!r}")
            pairs[node_id][a, b] = pairs[node_id][b, a] = value
        # keys at nodes with internal children may name derived composite
        # ids, which synthesis checks once it has named them
        for node_id, table in pairs.items():
            children = nodes[node_id].children
            if all(c.is_leaf for c in children):
                _check_pairs(node_id, {c.id: c.alternatives for c in children}, table)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_pairs", pairs)

    def node(self, node_id: str) -> MorphNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id!r}") from None

    def compatibility(self, node_id: str, a: str, b: str) -> int | None:
        """Table value for an unordered DA pair, None when unconstrained."""
        return self._pairs.get(node_id, {}).get((a, b))


def _check_pairs(
    node_id: str, offers: Mapping[str, Sequence[DesignAlternative]], table: Mapping
) -> None:
    """Reject a pair-table key that does not join alternatives of two
    different children (``offers`` maps child id -> the alternatives it
    offers), or that names an id two children share, which would constrain
    both pairs at once. Each key sits in the table as given, then reversed,
    so the first failure names the key as given."""
    homes: dict[str, list[str]] = {}  # alternative id -> the children offering it
    for child_id, das in offers.items():
        for da in das:
            homes.setdefault(da.id, []).append(child_id)
    for a, b in table:
        if a not in homes or b not in homes:
            reason = f"{a if a not in homes else b!r} is not an alternative of any child"
        elif len(homes[a]) > 1 or len(homes[b]) > 1:
            x = a if len(homes[a]) > 1 else b
            reason = f"{x!r} is an alternative of both {homes[x][0]!r} and {homes[x][1]!r}"
        elif homes[a] == homes[b]:
            reason = f"both belong to the same child {homes[a][0]!r}"
        else:
            continue
        raise ValidationError(f"node {node_id!r}: compatibility key ({a!r}, {b!r}): {reason}")


def walk(node: MorphNode) -> Iterable[MorphNode]:
    """The nodes in pre-order, by an explicit stack: no recursion limit."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


@frozen
class QualityVector:
    """(w; n1, n2, ...): worst pairwise compatibility plus per-level counts."""

    w: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if any(c < 0 for c in self.counts):
            raise ValidationError("level counts must be nonnegative")

    @property
    def m(self) -> int:
        return sum(self.counts)

    def cumulative(self, length: int | None = None) -> tuple[int, ...]:
        counts = list(self.counts)
        if length is not None:
            counts += [0] * (length - len(counts))
        return tuple(itertools.accumulate(counts))

    def render(self) -> str:
        return f"({self.w}; " + ", ".join(str(c) for c in self.counts) + ")"


def quality_payload(q: QualityVector) -> dict:
    """A quality vector as the ``synth`` and ``trajectory`` reports write it."""
    return {"w": q.w, "counts": q.counts}


def n_dominates(a: QualityVector, b: QualityVector) -> bool:
    """Strict dominance in the discrete quality space.

    Requires w(a) >= w(b) and every cumulative level count of a to be at
    least b's, with at least one strict inequality overall. Count lists of
    different lengths are zero-padded.
    """
    if a.m != b.m:
        raise ValidationError(f"part-count mismatch: {a.m} vs {b.m}")
    width = max(len(a.counts), len(b.counts))
    return dominates((a.w, *a.cumulative(width)), (b.w, *b.cumulative(width)))


@frozen
class CompositeDecision:
    """One chosen alternative per child part, with the resulting quality."""

    selection: tuple[tuple[str, str], ...]  # (child node id, alternative id)
    quality: QualityVector


def compose_node(
    system: MorphSystem,
    node_id: str,
    child_das: Mapping[str, Sequence[DesignAlternative]] | None = None,
    *,
    allow_zero_w: bool = False,
) -> list[CompositeDecision]:
    """Dominance-maximal compositions of one alternative per child.

    Compositions containing an explicit zero-compatibility pair are
    discarded unless allow_zero_w is set. Output order is canonical:
    descending w, then descending cumulative counts, then selection ids.
    More than MAX_COMBINATIONS compositions (or HMMD_KIT_GUARD, when set)
    raise GuardExceeded; an alternative priority below the priority scale's
    lo raises ValidationError.
    """
    node = system.node(node_id)
    if node.is_leaf:
        raise ValidationError(f"node {node_id!r} is a leaf; nothing to compose")
    lo = system.priority_scale.lo
    pools: list[list[DesignAlternative]] = []
    max_priority = system.priority_scale.hi
    for child in node.children:
        if child_das is not None and child.id in child_das:
            das = list(child_das[child.id])
        elif child.is_leaf:
            das = list(child.alternatives)
        else:
            raise ValidationError(
                f"child {child.id!r} is internal; supply its alternatives explicitly"
            )
        if not das:
            raise ValidationError(f"child {child.id!r} supplies no alternatives")
        for da in das:
            if da.priority < lo:
                raise ValidationError(
                    f"child {child.id!r}: alternative {da.id!r} has priority "
                    f"{da.priority} below {lo}"
                )
        max_priority = max(max_priority, max(da.priority for da in das))
        pools.append(das)
    check_guard(math.prod(map(len, pools)), MAX_COMBINATIONS, "combinations")
    level_count = max_priority - lo + 1
    # level counts travel as one int in base k + 1 (a count never exceeds the
    # k children): choosing priority p adds base ** (p - lo)
    base = len(pools) + 1
    steps = [[base ** (da.priority - lo) for da in das] for das in pools]
    # links[j]: (i, value matrix by positions) for each earlier child i that
    # shares at least one constrained pair with child j
    table = system._pairs[node.id]
    links: list[list[tuple[int, list]]] = [[] for _ in pools]
    for (i, das_i), (j, das_j) in itertools.combinations(enumerate(pools), 2):
        matrix = [[table.get((a.id, b.id)) for b in das_j] for a in das_i]
        if any(v is not None for row in matrix for v in row):
            links[j].append((i, matrix))
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}  # (w, counts code) -> choices
    chosen = [0] * len(pools)
    last = len(pools) - 1

    def walk(d: int, w: int, code: int) -> None:
        for p, step in enumerate(steps[d]):
            wp = w
            for i, matrix in links[d]:
                v = matrix[chosen[i]][p]
                if v is not None:
                    if v == 0 and not allow_zero_w:
                        break  # no completion of this prefix is feasible
                    if v < wp:
                        wp = v
            else:
                chosen[d] = p
                if d == last:
                    groups.setdefault((wp, code + step), []).append(tuple(chosen))
                else:
                    walk(d + 1, wp, code + step)

    # walk reaches itself through its closure cell, a reference cycle that
    # would hold groups until the next collection; dropping the name breaks it
    try:
        walk(0, system.compat_scale.hi, 0)
    finally:
        del walk
    by_vector: dict[tuple[int, ...], tuple[tuple[int, ...], list]] = {}
    for (w, code), choices in groups.items():
        counts = tuple(code // base**level % base for level in range(level_count))
        by_vector[(w, *itertools.accumulate(counts))] = counts, choices
    labels = [[(child.id, da.id) for da in das] for child, das in zip(node.children, pools)]
    decisions = []
    for vector in non_dominated(list(by_vector)):
        counts, choices = by_vector[vector]
        quality = QualityVector(vector[0], counts)
        selections = sorted(
            tuple(label[p] for label, p in zip(labels, positions)) for positions in choices
        )
        decisions.extend(CompositeDecision(s, quality) for s in selections)
    return decisions


# ------------------------------------------------ report shapes


def quality_codecs() -> tuple:
    """The codec of a quality vector in a report and its text; the synth
    and trajectory reports share them."""
    from .probio import INT, array, doc

    def line(q: dict) -> str:
        counts = ", ".join(str(c) for c in q["counts"])
        return f"N(S) = ({q['w']}; {counts})"

    return doc(("w", INT), ("counts", array(INT))), line
