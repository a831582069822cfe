"""The three-set pipeline: the owner of the pipeline problem type.

run_three_set_pipeline clusters two element sets, assigns the clusters
to each other, then buys at most one action per matched element pair
under a shared budget, through ``improve.plan_improvement``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .assign import AssignmentInstance, assign_greedy
from .cluster import DissimilarityMatrix, Linkage, build_dendrogram, cut_dendrogram
from .core import EstimateVector, Number, OracleError, ValidationError, check_unique, frozen
from .criteria import CriteriaFrame, check_lengths, nonnegative, shapes, vector_sum
from .improve import ImprovementPart, ImprovementSpec, plan_improvement
from .select import Item, items_codec


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
        object.__setattr__(self, "budget", nonnegative(self.budget, "budget", at=".budget"))
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
    return EstimateVector([s / len(vectors) for s in vector_sum(frame, vectors)])


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


# ----------------------------------------------- report and file format


@frozen
class PipelineProblem:
    spec: ThreeSetSpec
    linkage: Linkage


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


def codecs() -> tuple:
    """The pipeline file's payload codec, its report's solution codec and
    the body lines of its text report (``probio.OWNERS``)."""
    from .probio import FRAC, ID_LIST, IDS, INT, MATRIX, STR, List, Record, array, choice, doc, fail, render_number

    frame, cells = shapes()
    def pair_actions(pair: tuple, items: tuple) -> PairActions:
        if len(pair) != 2:
            fail("expected [element1, element2]", ".pair")
        return PairActions(*pair, items)

    element_set = Record(("ids", IDS, "ids"), ("matrix", MATRIX, "d"), build=DissimilarityMatrix)
    actions = Record(
        ("pair", List(STR), lambda a: (a.element1, a.element2)),
        ("items", items_codec("value"), "items"),
        build=pair_actions,
    )
    payload = Record(
        ("set1", element_set, "spec.set1"),
        ("set2", element_set, "spec.set2"),
        ("k1", INT, "spec.k1"),
        ("k2", INT, "spec.k2"),
        ("criteria", frame, "spec.frame"),
        ("correspondence", cells, "spec.correspondence"),
        ("action_criteria", frame, "spec.action_frame"),
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
