"""Composite schemes chaining the base solvers.

run_three_set_pipeline: cluster two element sets, assign the clusters,
then pick one action per matched element pair under a shared budget.
evaluate_integration_tree: bottom-up ordinal evaluation through total
lookup tables. plan_improvement: one improvement action per system part
within a budget. The module owns the integrate, pipeline and improve
problem types. design_trajectory and its records live in ``trajectory``,
the owner of the trajectory type, and are re-exported here on first
access, so the other framework runs never load it.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from .core import (
    Best,
    CriteriaFrame,
    EstimateVector,
    GuardExceeded,
    Number,
    OracleError,
    OrdinalScale,
    ValidationError,
    check_lengths,
    check_unique,
    frozen,
    nonnegative,
)

#: trajectory's public names, re-exported through __getattr__ (PEP 562)
_TRAJECTORY = ("Stage", "Trajectory", "TrajectorySpec", "design_trajectory")


def __getattr__(name: str):
    if name not in _TRAJECTORY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trajectory

    value = getattr(trajectory, name)
    globals()[name] = value  # later lookups skip this hook
    return value


# Each framework imports the solver modules it runs inside its functions,
# so a subcommand loads only the solvers it uses.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cluster import DissimilarityMatrix, Linkage
    from .select import Item, MckpInstance, SelectionSolution

# ------------------------------------------------------------------ pipeline


@frozen
class PairActions:
    element1: str
    element2: str
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValidationError(f"pair ({self.element1!r}, {self.element2!r}) has no actions")
        check_unique(
            [it.id for it in self.items], "pair ({!r}, {!r}): duplicate action id", self.element1, self.element2
        )


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
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget"))
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
        check_lengths(self.frame, (
            (v, "correspondence ({!r}, {!r})", e1, e2)
            for e1, row in zip(self.set1.ids, self.correspondence)
            for e2, v in zip(self.set2.ids, row)
        ))
        for pa in self.actions:
            if pa.element1 not in self.set1.ids or pa.element2 not in self.set2.ids:
                raise ValidationError(
                    f"actions for unknown pair ({pa.element1!r}, {pa.element2!r})"
                )
        check_unique([(pa.element1, pa.element2) for pa in self.actions], "duplicate action group for")
        check_lengths(self.action_frame, (
            (it.value, "pair ({!r}, {!r}), action {!r}", pa.element1, pa.element2, it.id)
            for pa in self.actions
            for it in pa.items
        ))


@frozen
class PipelineReport:
    clusters1: tuple[tuple[str, ...], ...]
    clusters2: tuple[tuple[str, ...], ...]
    assignment: tuple[tuple[int, int], ...]  # (cluster1 index, cluster2 index)
    selected_actions: tuple[tuple[str, str, str, Fraction], ...]
    total_cost: Fraction
    objective: Fraction
    mckp_method: str


def _mean_vector(frame: CriteriaFrame, vectors: list[EstimateVector]) -> EstimateVector:
    from .scalar import vector_sum

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


def _preorder(tree: IntegrationNode) -> list[IntegrationNode]:
    """The tree's nodes in pre-order; a repeated node id is an error."""
    nodes: list[IntegrationNode] = []
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node.id in seen:
            raise ValidationError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        nodes.append(node)
        stack.extend(reversed(node.children))
    return nodes


def evaluate_integration_tree(tree: IntegrationNode) -> IntegrationResult:
    """Bottom-up table lookups; the trace records every node's estimate."""
    trace: dict[str, int] = {}
    for node in reversed(_preorder(tree)):  # every node after its descendants
        if not node.children:
            trace[node.id] = node.estimate
            continue
        inputs = tuple(trace[c.id] for c in node.children)
        if inputs not in node.table:
            raise ValidationError(
                f"node {node.id!r}: no table entry for child estimates {inputs}"
            )
        trace[node.id] = node.table[inputs]
    return IntegrationResult(root_estimate=trace[tree.id], trace=trace)


def check_tables_total(tree: IntegrationNode) -> None:
    """Verify node ids are unique, then that each internal table covers the
    full product of child scales, node by node in pre-order."""
    for node in _preorder(tree):
        if not node.children:
            continue
        ranges = [range(c.scale.lo, c.scale.hi + 1) for c in node.children]
        for key in itertools.product(*ranges):
            if key not in node.table:
                raise ValidationError(
                    f"node {node.id!r}: table misses child estimates {key}"
                )


# ---------------------------------------------------------------- improvement


@frozen
class ImprovementPart:
    id: str
    actions: tuple[Item, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        check_unique([a.id for a in self.actions], "part {!r}: duplicate action id", self.id)


@frozen
class ImprovementSpec:
    frame: CriteriaFrame
    parts: tuple[ImprovementPart, ...]
    budget: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget"))
        if not self.parts:
            raise ValidationError("an improvement spec needs at least one part")
        check_unique([p.id for p in self.parts], "duplicate part id")
        check_lengths(self.frame, (
            (a.value, "part {!r}, action {!r}", p.id, a.id) for p in self.parts for a in p.actions
        ))


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


# ----------------------------------------------- reports and file format


def report_integrate(problem, method, weights, oracle):
    """``hmmdkit integrate``: the oracle checks the trace's root entry."""
    result = evaluate_integration_tree(problem.tree)
    solution = {
        "root_estimate": result.root_estimate,
        "trace": dict(sorted(result.trace.items())),
    }
    diagnostics = {}
    if oracle:
        if result.trace[problem.tree.id] != result.root_estimate:
            raise OracleError("trace root disagrees with estimate")
        diagnostics["oracle"] = "ok (trace consistent)"
    return solution, diagnostics


def report_pipeline(problem, method, weights, oracle):
    """``hmmdkit pipeline``: the oracle checks the budget, the cost sum and
    that every action joins a matched pair of clusters."""
    report = run_three_set_pipeline(problem.spec, problem.linkage, weights)
    solution = {
        "clusters1": report.clusters1,
        "clusters2": report.clusters2,
        "assignment": report.assignment,
        "actions": [
            {"element1": e1, "element2": e2, "action": act, "cost": cost}
            for e1, e2, act, cost in report.selected_actions
        ],
        "total_cost": report.total_cost,
        "objective": report.objective,
        "mckp_method": report.mckp_method,
    }
    diagnostics = {}
    if oracle:
        if report.total_cost > problem.spec.budget:
            raise OracleError("pipeline exceeded its budget")
        if sum(cost for *_, cost in report.selected_actions) != report.total_cost:
            raise OracleError("selected action costs do not add up to the total cost")
        for e1, e2, _, _ in report.selected_actions:
            blocks1 = [i for i, b in enumerate(report.clusters1) if e1 in b]
            blocks2 = [j for j, b in enumerate(report.clusters2) if e2 in b]
            if (blocks1[0], blocks2[0]) not in set(report.assignment):
                raise OracleError(f"action for unmatched pair ({e1}, {e2})")
        diagnostics["oracle"] = "ok (stage-consistent selection)"
    return solution, diagnostics


def report_improve(problem, method, weights, oracle):
    """``hmmdkit improve``: the oracle checks one action per part within budget."""
    from .select import selection_payload

    plan = plan_improvement(problem.spec, weights)
    solution = selection_payload(plan.solution)
    solution["by_part"] = dict(sorted(plan.by_part.items()))
    diagnostics = {"solver": plan.method}
    if oracle:
        acted = sum(a is not None for a in plan.by_part.values())
        if len(plan.solution.chosen) != acted:
            raise OracleError("two actions selected for one part")
        if plan.solution.total_cost > problem.spec.budget:
            raise OracleError("improvement plan exceeded its budget")
        diagnostics["oracle"] = "ok (one action per part within budget)"
    return solution, diagnostics


def _integrate_codecs() -> tuple:
    from .probio import INT, STR, IntegrateProblem, List, Map, Record, Ref, Table, doc, scale, wrap

    def build(path: str, tree: IntegrationNode) -> IntegrateProblem:
        with wrap(f"{path}.tree"):
            check_tables_total(tree)
        return IntegrateProblem(tree)

    node = Ref()
    node.target = Record(
        ("id", STR, "id"),
        ("scale", scale(Best.HIGH), "scale"),
        ("children", List(node, 1), lambda n: n.children or None, ()),
        ("table", Table(("inputs", List(INT)), ("output", INT), min_len=1), "table", None),
        ("estimate", INT, "estimate", None),
        build=IntegrationNode,
    )
    payload = Record(("tree", node, "tree"), build=build, with_path=True)

    def text(sol: dict) -> list[str]:
        lines = [f"root estimate: {sol['root_estimate']}"]
        for nid, est in sorted(sol["trace"].items()):
            lines.append(f"  {nid}: {est}")
        return lines

    return payload, doc(("root_estimate", INT), ("trace", Map(INT))), text


def _pipeline_codecs() -> tuple:
    from .cluster import DissimilarityMatrix, Linkage
    from .probio import CELLS, FRAC, FRAME, ID_LIST, IDS, INT, MATRIX, STR, List, PipelineProblem, Record
    from .probio import array, choice, doc, fail, render_number
    from .select import items_codec

    def pair_actions(path: str, pair: tuple, items: tuple) -> PairActions:
        if len(pair) != 2:
            fail(f"{path}.pair", "expected [element1, element2]")
        return PairActions(*pair, items)

    element_set = Record(("ids", IDS, "ids"), ("matrix", MATRIX, "d"), build=DissimilarityMatrix)
    actions = Record(
        ("pair", List(STR), lambda a: (a.element1, a.element2)),
        ("items", items_codec("value"), "items"),
        build=pair_actions,
        with_path=True,
    )
    payload = Record(
        ("set1", element_set, "spec.set1"),
        ("set2", element_set, "spec.set2"),
        ("k1", INT, "spec.k1"),
        ("k2", INT, "spec.k2"),
        ("criteria", FRAME, "spec.frame"),
        ("correspondence", CELLS, "spec.correspondence"),
        ("action_criteria", FRAME, "spec.action_frame"),
        ("actions", List(actions), "spec.actions"),
        ("budget", FRAC, "spec.budget"),
        ("linkage", choice(Linkage), "linkage", Linkage.SINGLE),
        build=lambda *args: PipelineProblem(ThreeSetSpec(*args[:-1]), args[-1]),
    )
    solution = doc(
        ("clusters1", array(ID_LIST)),
        ("clusters2", array(ID_LIST)),
        ("assignment", array(array(INT))),
        ("actions", array(doc(("element1", STR), ("element2", STR), ("action", STR), ("cost", FRAC)))),
        ("total_cost", FRAC),
        ("objective", FRAC),
        ("mckp_method", STR),
    )

    def text(sol: dict) -> list[str]:
        lines = []
        for n in (1, 2):
            for i, block in enumerate(sol[f"clusters{n}"]):
                lines.append(f"cluster{n}[{i}]: " + ", ".join(block))
        for i, j in sol["assignment"]:
            lines.append(f"match: cluster1[{i}] -> cluster2[{j}]")
        for entry in sol["actions"]:
            lines.append(
                f"action ({entry['element1']}, {entry['element2']}): "
                f"{entry['action']} at cost {render_number(entry['cost'])}"
            )
        lines.append(f"total cost: {render_number(sol['total_cost'])}")
        lines.append(f"objective: {render_number(sol['objective'])}")
        return lines

    return payload, solution, text


def _improve_codecs() -> tuple:
    from .probio import FRAC, FRAME, STR, ImproveProblem, List, Map, Record, nullable
    from .select import items_codec, selection_codecs

    part = Record(("id", STR, "id"), ("actions", items_codec("effect"), "actions"), build=ImprovementPart)
    payload = Record(
        ("criteria", FRAME, "spec.frame"),
        ("parts", List(part, 1), "spec.parts"),
        ("budget", FRAC, "spec.budget"),
        build=lambda *args: ImproveProblem(ImprovementSpec(*args)),
    )
    return payload, *selection_codecs(("by_part", Map(nullable(STR))))


def codecs(problem_type: str) -> tuple:
    """The payload codec of an integrate, pipeline or improve file, its
    report's solution codec and the body lines of its text report
    (``probio.OWNERS``). Each builder imports only the solver modules its
    type needs."""
    return {
        "integrate": _integrate_codecs,
        "pipeline": _pipeline_codecs,
        "improve": _improve_codecs,
    }[problem_type]()
