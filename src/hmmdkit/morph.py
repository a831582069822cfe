"""Hierarchical morphological synthesis over a tree-structured system model.

A system is a tree whose leaves carry design alternatives with ordinal
priorities (1 = best) and whose internal nodes carry pairwise
compatibility tables between the alternative sets of their children.
Composing one alternative per child yields a quality vector
N(S) = (w; n1, n2, ...): the worst pairwise compatibility inside the
composition plus the count of chosen parts at each priority level.
Synthesis enumerates compositions bottom-up, keeps the dominance-maximal
set at every node, and feeds those composites upward as derived
alternatives.

Dominance over quality vectors is intentionally weak: w must not drop and
no prefix of the priority-level counts may lose mass (shifting parts
toward better levels can only help). Two vectors trading w against level
counts stay incomparable, which is what keeps several designs alive.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from operator import attrgetter

from .core import (
    DEFAULT_COMPAT_SCALE,
    DEFAULT_PRIORITY_SCALE,
    EstimateVector,
    GuardExceeded,
    OrdinalScale,
    ValidationError,
    frozen,
    guard_limit,
    non_dominated,
    pareto_layers,
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
        ids = [da.id for da in self.alternatives]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"node {self.id!r}: duplicate alternative ids")

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
        object.__setattr__(self, "_nodes", nodes)
        for (node_id, a, b), value in self.compat.items():
            if node_id not in nodes:
                raise ValidationError(f"compatibility table for unknown node {node_id!r}")
            if (node_id, b, a) in self.compat and (a, b) != (b, a):
                raise ValidationError(
                    f"both orientations of pair {a!r}-{b!r} present at node {node_id!r}"
                )
            if not self.compat_scale.contains(value):
                raise ValidationError(
                    f"compatibility {a!r}-{b!r} at node {node_id!r}: {value} outside "
                    f"[{self.compat_scale.lo}, {self.compat_scale.hi}]"
                )
            owner = nodes[node_id]
            if owner.is_leaf:
                raise ValidationError(
                    f"compatibility table on leaf node {node_id!r}"
                )
            # when every child is a leaf the pair must join two distinct
            # children; nodes with internal children may also reference
            # derived composite ids, which synthesis checks once it names them
            if all(c.is_leaf for c in owner.children):
                homes = {
                    alt.id: c.id for c in owner.children for alt in c.alternatives
                }
                if a not in homes or b not in homes:
                    missing = a if a not in homes else b
                    raise ValidationError(
                        f"node {node_id!r}: {missing!r} is not an alternative "
                        "of any child"
                    )
                if homes[a] == homes[b]:
                    raise ValidationError(
                        f"node {node_id!r}: {a!r} and {b!r} belong to the same "
                        f"child {homes[a]!r}"
                    )

    def node(self, node_id: str) -> MorphNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id!r}") from None

    def compatibility(self, node_id: str, a: str, b: str) -> int | None:
        """Table value for an unordered DA pair, None when unconstrained."""
        hit = self.compat.get((node_id, a, b))
        if hit is None:
            hit = self.compat.get((node_id, b, a))
        return hit


def walk(node: MorphNode) -> Iterable[MorphNode]:
    yield node
    for child in node.children:
        yield from walk(child)


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


def n_dominates(a: QualityVector, b: QualityVector) -> bool:
    """Strict dominance in the discrete quality space.

    Requires w(a) >= w(b) and every cumulative level count of a to be at
    least b's, with at least one strict inequality overall. Count lists of
    different lengths are zero-padded.
    """
    if a.m != b.m:
        raise ValidationError(f"part-count mismatch: {a.m} vs {b.m}")
    width = max(len(a.counts), len(b.counts))
    ca, cb = a.cumulative(width), b.cumulative(width)
    ge = a.w >= b.w and all(x >= y for x, y in zip(ca, cb))
    strict = a.w > b.w or any(x > y for x, y in zip(ca, cb))
    return ge and strict


@frozen
class CompositeDecision:
    """One chosen alternative per child part, with the resulting quality."""

    selection: tuple[tuple[str, str], ...]  # (child node id, alternative id)
    quality: QualityVector

    @property
    def selection_map(self) -> dict[str, str]:
        return dict(self.selection)


def _quality(
    system: MorphSystem,
    node: MorphNode,
    chosen: Sequence[tuple[str, DesignAlternative]],
    level_count: int,
) -> tuple[QualityVector, bool]:
    """Quality of one composition plus whether it contains a zero pair."""
    worst: int | None = None
    has_zero = False
    for (_, da_a), (_, da_b) in itertools.combinations(chosen, 2):
        value = system.compatibility(node.id, da_a.id, da_b.id)
        if value is None:
            continue  # unconstrained pair counts as best
        if value == 0:
            has_zero = True
        if worst is None or value < worst:
            worst = value
    w = system.compat_scale.hi if worst is None else worst
    counts = [0] * level_count
    for _, da in chosen:
        counts[da.priority - system.priority_scale.lo] += 1
    return QualityVector(w, tuple(counts)), has_zero


def _canonical_sort(decisions: list[CompositeDecision]) -> list[CompositeDecision]:
    width = max((len(d.quality.counts) for d in decisions), default=0)
    return sorted(
        decisions,
        key=lambda d: (
            -d.quality.w,
            tuple(-c for c in d.quality.cumulative(width)),
            d.selection,
        ),
    )


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
    raise GuardExceeded.
    """
    node = system.node(node_id)
    if node.is_leaf:
        raise ValidationError(f"node {node_id!r} is a leaf; nothing to compose")
    pools: list[list[tuple[str, DesignAlternative]]] = []
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
        max_priority = max(max_priority, max(da.priority for da in das))
        pools.append([(child.id, da) for da in das])
    total = 1
    for pool in pools:
        total *= len(pool)
    limit = guard_limit(MAX_COMBINATIONS)
    if total > limit:
        raise GuardExceeded(f"{total} combinations exceed guard {limit}")
    level_count = max_priority - system.priority_scale.lo + 1
    feasible: list[CompositeDecision] = []
    for combo in itertools.product(*pools):
        quality, has_zero = _quality(system, node, combo, level_count)
        if has_zero and not allow_zero_w:
            continue
        feasible.append(CompositeDecision(tuple((cid, da.id) for cid, da in combo), quality))
    return _canonical_sort(non_dominated(feasible, n_dominates, attrgetter("quality")))


def priorities_from_quality(
    decisions: Sequence[CompositeDecision],
) -> dict[CompositeDecision, int]:
    """Ordinal priorities of composites: dominance layer index (dense)."""
    if not decisions:
        raise ValidationError("no decisions to prioritize")
    parts = {d.quality.m for d in decisions}
    if len(parts) != 1:
        raise ValidationError(f"mixed part counts: {sorted(parts)}")
    layers = pareto_layers(decisions, n_dominates, attrgetter("quality"))
    return dict(zip(decisions, layers))


@frozen
class NodeSynthesis:
    """Per-node record of a bottom-up synthesis run."""

    node_id: str
    decisions: tuple[CompositeDecision, ...]
    composite_ids: tuple[str, ...]  # one derived id per decision
    priorities: tuple[int, ...]
    leaf_selections: tuple[tuple[tuple[str, str], ...], ...]


@frozen
class SynthesisTrace:
    nodes: dict[str, NodeSynthesis]
    root_id: str

    @property
    def root(self) -> NodeSynthesis:
        return self.nodes[self.root_id]


def synthesize_tree_trace(system: MorphSystem) -> SynthesisTrace:
    """Bottom-up synthesis keeping every internal node's Pareto record."""
    records: dict[str, NodeSynthesis] = {}

    def expand(node: MorphNode) -> tuple[list[DesignAlternative], dict[str, tuple]]:
        """Alternatives this node offers upward + leaf expansion per DA id."""
        if node.is_leaf:
            return list(node.alternatives), {
                da.id: ((node.id, da.id),) for da in node.alternatives
            }
        child_das: dict[str, Sequence[DesignAlternative]] = {}
        child_leaves: dict[str, dict[str, tuple]] = {}
        for child in node.children:
            das, leaves = expand(child)
            child_das[child.id] = das
            child_leaves[child.id] = leaves
        homes = {da.id: cid for cid, das in child_das.items() for da in das}
        for node_id, a, b in system.compat:
            if node_id == node.id and (
                a not in homes or b not in homes or homes[a] == homes[b]
            ):
                raise ValidationError(
                    f"node {node.id!r}: compatibility key ({a!r}, {b!r}) names no "
                    "pair of alternatives from two different children"
                )
        decisions = compose_node(system, node.id, child_das)
        if not decisions:
            raise ValidationError(
                f"node {node.id!r}: every composition contains an infeasible pair"
            )
        prio = priorities_from_quality(decisions)
        ids = tuple(f"{node.id}_{k + 1}" for k in range(len(decisions)))
        expansions = {}
        for cid, decision in zip(ids, decisions):
            flat: list[tuple[str, str]] = []
            for child_id, da_id in decision.selection:
                flat.extend(child_leaves[child_id][da_id])
            expansions[cid] = tuple(flat)
        records[node.id] = NodeSynthesis(
            node_id=node.id,
            decisions=tuple(decisions),
            composite_ids=ids,
            priorities=tuple(prio[d] for d in decisions),
            leaf_selections=tuple(expansions[cid] for cid in ids),
        )
        derived = [
            DesignAlternative(cid, prio[d]) for cid, d in zip(ids, decisions)
        ]
        return derived, expansions

    if system.root.is_leaf:
        raise ValidationError("the root must be an internal node")
    expand(system.root)
    return SynthesisTrace(nodes=records, root_id=system.root.id)


def synthesize_tree(system: MorphSystem) -> list[CompositeDecision]:
    """Pareto-efficient composite decisions for the root node."""
    return list(synthesize_tree_trace(system).root.decisions)


def quality_vector(
    system: MorphSystem, node_id: str, selection: Mapping[str, str]
) -> QualityVector:
    """Quality of an explicit selection over a node's leaf children."""
    node = system.node(node_id)
    if node.is_leaf:
        raise ValidationError(f"node {node_id!r} is a leaf")
    chosen: dict[str, list[DesignAlternative]] = {}
    for child in node.children:
        if child.id not in selection:
            raise ValidationError(f"selection misses child {child.id!r}")
        if not child.is_leaf:
            raise ValidationError(
                f"child {child.id!r} is internal; use the synthesis entry point"
            )
        da_id = selection[child.id]
        matches = [da for da in child.alternatives if da.id == da_id]
        if not matches:
            raise ValidationError(f"child {child.id!r} has no alternative {da_id!r}")
        chosen[child.id] = matches[:1]
    (decision,) = compose_node(system, node_id, chosen, allow_zero_w=True)
    return decision.quality
