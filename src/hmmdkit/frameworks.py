"""Composite schemes chaining the base solvers.

run_three_set_pipeline: cluster two element sets, assign the clusters,
then pick one action per matched element pair under a shared budget.
design_trajectory: one decision per stage, solved as a morphological
composition over inter-stage compatibilities. evaluate_integration_tree:
bottom-up ordinal evaluation through total lookup tables. plan_improvement:
one improvement action per system part within a budget.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from .core import (
    DEFAULT_COMPAT_SCALE,
    Best,
    CriteriaFrame,
    EstimateVector,
    GuardExceeded,
    Number,
    OrdinalScale,
    ValidationError,
    as_frac,
    frozen,
    vector_sum,
)

# Each framework imports the solver modules it runs inside its functions,
# so a subcommand loads only the solvers it uses.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cluster import DissimilarityMatrix, Linkage
    from .morph import QualityVector
    from .select import Item, MckpInstance, SelectionSolution

# ------------------------------------------------------------------ pipeline


@frozen
class PairActions:
    element1: str
    element2: str
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        pair = f"pair ({self.element1!r}, {self.element2!r})"
        if not self.items:
            raise ValidationError(f"{pair} has no actions")
        _check_action_ids(pair, self.items)


@frozen
class ThreeSetSpec:
    set1: DissimilarityMatrix
    set2: DissimilarityMatrix
    k1: int
    k2: int
    frame: CriteriaFrame  # governs correspondence vectors
    correspondence: tuple[tuple[EstimateVector, ...], ...]  # |set1| x |set2|
    action_frame: CriteriaFrame  # governs action value vectors
    actions: tuple[PairActions, ...]
    budget: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "budget", as_frac(self.budget))
        if self.budget < 0:
            raise ValidationError("budget must be nonnegative")
        object.__setattr__(
            self, "correspondence", tuple(tuple(r) for r in self.correspondence)
        )
        object.__setattr__(self, "actions", tuple(self.actions))
        n1, n2 = len(self.set1.ids), len(self.set2.ids)
        if not 1 <= self.k1 <= n1:
            raise ValidationError(f"k1={self.k1} outside 1..{n1}")
        if not 1 <= self.k2 <= n2:
            raise ValidationError(f"k2={self.k2} outside 1..{n2}")
        if len(self.correspondence) != n1 or any(
            len(row) != n2 for row in self.correspondence
        ):
            raise ValidationError(f"correspondence must be {n1}x{n2}")
        for row in self.correspondence:
            for v in row:
                if not v.conforms(self.frame):
                    raise ValidationError("correspondence vector length mismatch")
        seen = set()
        for pa in self.actions:
            if pa.element1 not in self.set1.ids or pa.element2 not in self.set2.ids:
                raise ValidationError(
                    f"actions for unknown pair ({pa.element1!r}, {pa.element2!r})"
                )
            if (pa.element1, pa.element2) in seen:
                raise ValidationError(
                    f"duplicate action group for ({pa.element1!r}, {pa.element2!r})"
                )
            seen.add((pa.element1, pa.element2))
            for it in pa.items:
                if not it.value.conforms(self.action_frame):
                    raise ValidationError(f"action {it.id!r}: value length mismatch")


@frozen
class PipelineReport:
    clusters1: tuple[tuple[str, ...], ...]
    clusters2: tuple[tuple[str, ...], ...]
    assignment: tuple[tuple[int, int], ...]  # (cluster1 index, cluster2 index)
    selected_actions: tuple[tuple[str, str, str, Fraction], ...]
    total_cost: Fraction
    objective: Fraction
    mckp_method: str


def _check_action_ids(owner: str, actions: Sequence[Item]) -> None:
    ids = [a.id for a in actions]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{owner}: duplicate action ids: {ids}")


def _mean_vector(frame: CriteriaFrame, vectors: list[EstimateVector]) -> EstimateVector:
    return EstimateVector([s / len(vectors) for s in vector_sum(frame, vectors)])


def _solve_mckp(inst: MckpInstance, weights) -> tuple[SelectionSolution, str]:
    """Exact DP on integral data within the table guard, greedy otherwise."""
    from .select import mckp_exact_dp, mckp_greedy

    # integrality is tested here, not by catching ValidationError, which
    # would also swallow a bad HMMD_KIT_GUARD
    integral = inst.budget.denominator == 1 and all(
        it.cost.denominator == 1 for g in inst.groups for it in g.items
    )
    if integral:
        try:
            return mckp_exact_dp(inst, weights), "exact_dp"
        except GuardExceeded:
            pass
    return mckp_greedy(inst, weights), "greedy"


def run_three_set_pipeline(
    spec: ThreeSetSpec,
    linkage: Linkage | None = None,
    weights: Sequence[Number] | None = None,
) -> PipelineReport:
    """Cluster both sets (single linkage unless ``linkage`` is given), match
    the clusters, then buy actions per pair.

    Cluster-level correspondence is the arithmetic mean of the element
    vectors across the cluster pair. Only element pairs inside matched
    clusters receive actions: each such pair is one part, tagged
    "e1::e2", of the improvement plan that plan_improvement solves under
    the budget with the action frame's own weights.
    """
    from .assign import AssignmentInstance, assign_greedy
    from .cluster import Linkage, build_dendrogram, cut_dendrogram

    linkage = Linkage.SINGLE if linkage is None else linkage
    clusters1 = tuple(cut_dendrogram(build_dendrogram(spec.set1, linkage), spec.k1))
    clusters2 = tuple(cut_dendrogram(build_dendrogram(spec.set2, linkage), spec.k2))
    idx1 = {e: i for i, e in enumerate(spec.set1.ids)}
    idx2 = {e: i for i, e in enumerate(spec.set2.ids)}
    cells = tuple(
        tuple(
            _mean_vector(
                spec.frame,
                [
                    spec.correspondence[idx1[e1]][idx2[e2]]
                    for e1 in c1
                    for e2 in c2
                ]
            )
            for c2 in clusters2
        )
        for c1 in clusters1
    )
    agents = tuple(f"c1_{i}" for i in range(len(clusters1)))
    positions = tuple(f"c2_{j}" for j in range(len(clusters2)))
    matching = assign_greedy(
        AssignmentInstance(agents, positions, cells, spec.frame),
        weights=weights,
    )
    assignment = tuple(
        sorted(
            (agents.index(a), positions.index(p)) for a, p in matching.pairs
        )
    )
    by_pair = {(pa.element1, pa.element2): pa for pa in spec.actions}
    matched = [
        (e1, e2)
        for i, j in assignment
        for e1 in clusters1[i]
        for e2 in clusters2[j]
        if (e1, e2) in by_pair
    ]
    if matched:
        parts = [ImprovementPart(f"{e1}::{e2}", by_pair[e1, e2].items) for e1, e2 in matched]
        plan = plan_improvement(ImprovementSpec(spec.action_frame, parts, spec.budget))
        selected = tuple(
            sorted(
                (e1, e2, a.id, a.cost)
                for (e1, e2), part in zip(matched, parts)
                for a in part.actions
                if plan.by_part[part.id] == a.id
            )
        )
        total, objective, method = plan.solution.total_cost, plan.solution.objective, plan.method
    else:
        selected, total, objective, method = (), Fraction(0), Fraction(0), "none"
    return PipelineReport(
        clusters1=clusters1,
        clusters2=clusters2,
        assignment=assignment,
        selected_actions=selected,
        total_cost=total,
        objective=objective,
        mckp_method=method,
    )


# ---------------------------------------------------------------- trajectory


@frozen
class Stage:
    time: Fraction
    decisions: tuple[tuple[str, int], ...]  # (decision id, priority)

    def __post_init__(self) -> None:
        object.__setattr__(self, "time", as_frac(self.time))
        object.__setattr__(self, "decisions", tuple(self.decisions))
        if not self.decisions:
            raise ValidationError("a stage needs at least one decision")
        for d, p in self.decisions:
            if p < 1:
                raise ValidationError(f"decision {d!r}: priority {p} is below 1")


@frozen
class TrajectorySpec:
    stages: tuple[Stage, ...]
    compat: dict[tuple[str, str], int]  # (earlier decision, later decision)
    compat_scale: OrdinalScale = DEFAULT_COMPAT_SCALE

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "compat", dict(self.compat))
        if not self.stages:
            raise ValidationError("a trajectory spec needs at least one stage")
        ids = [d for s in self.stages for d, _ in s.decisions]
        if len(set(ids)) != len(ids):
            raise ValidationError("decision ids must be unique across stages")
        stage_of = {
            d: i for i, s in enumerate(self.stages) for d, _ in s.decisions
        }
        for (a, b), v in self.compat.items():
            if a not in stage_of or b not in stage_of:
                raise ValidationError(f"compatibility for unknown decisions ({a!r}, {b!r})")
            if stage_of[a] >= stage_of[b]:
                raise ValidationError(
                    f"compatibility ({a!r}, {b!r}) must run from an earlier stage "
                    "to a later one"
                )
            if not self.compat_scale.contains(v):
                raise ValidationError(f"compatibility ({a!r}, {b!r}): {v} out of scale")

    def priorities(self) -> dict[str, int]:
        return {d: p for s in self.stages for d, p in s.decisions}


@frozen
class Trajectory:
    path: tuple[str, ...]  # one decision id per stage
    quality: QualityVector


def design_trajectory(spec: TrajectorySpec, all_pairs: bool = False) -> list[Trajectory]:
    """Dominance-maximal stage-decision sequences.

    The spec becomes a one-level morphological system: one leaf part per
    stage, with compatibilities between consecutive stages (all stage
    pairs with all_pairs), every one of which must be given. Zero-valued
    links stay allowed. Output order is compose_node's canonical order.
    """
    from .morph import DesignAlternative, MorphNode, MorphSystem, compose_node

    stages = [s.decisions for s in spec.stages]
    n = len(stages)
    linked = itertools.combinations(range(n), 2) if all_pairs else zip(range(n), range(1, n))
    compat = {}
    for i, j in linked:
        for (a, _), (b, _) in itertools.product(stages[i], stages[j]):
            if (a, b) not in spec.compat:
                raise ValidationError(
                    f"missing compatibility between stage decisions {a!r} and {b!r}"
                )
            compat[("trajectory", a, b)] = spec.compat[(a, b)]
    parts = tuple(
        MorphNode(str(i), alternatives=tuple(DesignAlternative(d, p) for d, p in ds))
        for i, ds in enumerate(stages)
    )
    system = MorphSystem(
        MorphNode("trajectory", children=parts),
        compat,
        compat_scale=spec.compat_scale,
        priority_scale=OrdinalScale(1, max(3, *spec.priorities().values()), Best.LOW),
    )
    return [
        Trajectory(tuple(da for _, da in d.selection), d.quality)
        for d in compose_node(system, "trajectory", allow_zero_w=True)
    ]


# ----------------------------------------------------------- integration tree


@frozen
class IntegrationNode:
    id: str
    scale: OrdinalScale
    children: tuple["IntegrationNode", ...] = ()
    table: dict[tuple[int, ...], int] | None = None
    estimate: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if self.children:
            if self.table is None:
                raise ValidationError(f"internal node {self.id!r} needs a table")
            if self.estimate is not None:
                raise ValidationError(f"internal node {self.id!r} must not carry an estimate")
            object.__setattr__(
                self, "table", {tuple(k): v for k, v in self.table.items()}
            )
            for key, v in self.table.items():
                if len(key) != len(self.children):
                    raise ValidationError(
                        f"node {self.id!r}: table tuple {key} has wrong arity"
                    )
                if not self.scale.contains(v):
                    raise ValidationError(
                        f"node {self.id!r}: table output {v} out of scale"
                    )
        else:
            if self.estimate is None:
                raise ValidationError(f"leaf {self.id!r} needs an estimate")
            if self.table is not None:
                raise ValidationError(f"leaf {self.id!r} must not carry a table")
            if not self.scale.contains(self.estimate):
                raise ValidationError(
                    f"leaf {self.id!r}: estimate {self.estimate} outside "
                    f"[{self.scale.lo}, {self.scale.hi}]"
                )


@frozen
class IntegrationResult:
    root_estimate: int
    trace: dict[str, int]


def evaluate_integration_tree(tree: IntegrationNode) -> IntegrationResult:
    """Bottom-up table lookups; the trace records every node's estimate."""
    trace: dict[str, int] = {}
    seen: set[str] = set()

    def walk(node: IntegrationNode) -> int:
        if node.id in seen:
            raise ValidationError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        if not node.children:
            trace[node.id] = node.estimate
            return node.estimate
        inputs = tuple(walk(c) for c in node.children)
        if inputs not in node.table:
            raise ValidationError(
                f"node {node.id!r}: no table entry for child estimates {inputs}"
            )
        value = node.table[inputs]
        trace[node.id] = value
        return value

    return IntegrationResult(root_estimate=walk(tree), trace=trace)


def check_tables_total(tree: IntegrationNode) -> None:
    """Verify each internal table covers the full product of child scales."""
    if not tree.children:
        return
    ranges = [range(c.scale.lo, c.scale.hi + 1) for c in tree.children]
    for key in itertools.product(*ranges):
        if key not in tree.table:
            raise ValidationError(
                f"node {tree.id!r}: table misses child estimates {key}"
            )
    for c in tree.children:
        check_tables_total(c)


# ---------------------------------------------------------------- improvement


@frozen
class ImprovementPart:
    id: str
    actions: tuple[Item, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        _check_action_ids(f"part {self.id!r}", self.actions)


@frozen
class ImprovementSpec:
    frame: CriteriaFrame
    parts: tuple[ImprovementPart, ...]
    budget: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "budget", as_frac(self.budget))
        if self.budget < 0:
            raise ValidationError("budget must be nonnegative")
        if not self.parts:
            raise ValidationError("an improvement spec needs at least one part")
        ids = [p.id for p in self.parts]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate part ids")
        for p in self.parts:
            for a in p.actions:
                if not a.value.conforms(self.frame):
                    raise ValidationError(f"part {p.id!r}, action {a.id!r}: effect length mismatch")


@frozen
class ImprovementPlan:
    by_part: dict[str, str | None]  # part id -> chosen action id
    solution: SelectionSolution
    method: str


def plan_improvement(
    spec: ImprovementSpec, weights: Sequence[Number] | None = None
) -> ImprovementPlan:
    """At most one improvement action per part within the budget."""
    from .select import Group, GroupRule, Item, MckpInstance

    groups = []
    origin: dict[str, tuple[str, str]] = {}
    for part in spec.parts:
        if not part.actions:
            continue
        items = tuple(
            Item(f"{part.id}::{a.id}", a.value, a.cost) for a in part.actions
        )
        for it, a in zip(items, part.actions):
            origin[it.id] = (part.id, a.id)
        groups.append(Group(part.id, items))
    if not groups:
        raise ValidationError("no actions to select from")
    inst = MckpInstance(
        frame=spec.frame,
        groups=tuple(groups),
        budget=spec.budget,
        group_rule=GroupRule.AT_MOST_ONE,
    )
    solution, method = _solve_mckp(inst, weights)
    by_part: dict[str, str | None] = {p.id: None for p in spec.parts}
    for item_id in solution.chosen:
        part_id, action_id = origin[item_id]
        by_part[part_id] = action_id
    return ImprovementPlan(by_part=by_part, solution=solution, method=method)
