"""Multi-stage design trajectories.

design_trajectory: one decision per stage, solved as a morphological
composition over inter-stage compatibilities. The module owns the
``trajectory`` problem type: its records, its report and its file shapes.
"""

from __future__ import annotations

import itertools
from functools import cache

from .core import DEFAULT_COMPAT_SCALE, Best, OracleError, OrdinalScale, ValidationError, check_unique, frozen
from .morph import (
    DesignAlternative,
    LazyExact,
    MorphNode,
    MorphSystem,
    QualityVector,
    compose_node,
    quality_codecs,
    quality_payload,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from fractions import Fraction


@cache
def _as_frac():
    """``exact.as_frac``, imported for the first stage time that is not an int."""
    from .exact import as_frac

    return as_frac


@frozen
class Stage:
    """One stage: its time, an int or else an exact Fraction, and its decisions."""

    time: int | Fraction
    decisions: tuple[tuple[str, int], ...]  # (decision id, priority)

    def __post_init__(self) -> None:
        if self.time.__class__ is not int:  # an int time loads no exact numbers
            object.__setattr__(self, "time", _as_frac()(self.time))
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "compat", dict(self.compat))
        if not self.stages:
            raise ValidationError("a trajectory spec needs at least one stage")
        check_unique([d for s in self.stages for d, _ in s.decisions], "duplicate decision id")
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
            if not DEFAULT_COMPAT_SCALE.contains(v):
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
        priority_scale=OrdinalScale(1, max(3, *spec.priorities().values()), Best.LOW),
    )
    return [
        Trajectory(tuple(da for _, da in d.selection), d.quality)
        for d in compose_node(system, "trajectory", allow_zero_w=True)
    ]


# ----------------------------------------------- report and file format


@frozen
class TrajectoryProblem:
    spec: TrajectorySpec
    all_pairs: bool


def report_trajectory(problem, method, weights, oracle):
    """``hmmdkit trajectory``: the oracle checks one decision per stage."""
    front = design_trajectory(problem.spec, problem.all_pairs)
    solution = {"trajectories": [{"path": t.path, "quality": quality_payload(t.quality)} for t in front]}
    diagnostics = {}
    if oracle:
        stage_ids = [{d for d, _ in s.decisions} for s in problem.spec.stages]
        for t in front:
            if len(t.path) != len(stage_ids) or any(d not in ids for d, ids in zip(t.path, stage_ids)):
                raise OracleError(f"invalid trajectory {t.path}")
        diagnostics["oracle"] = "ok (one decision per stage)"
    return solution, diagnostics


def codecs() -> tuple:
    """The trajectory file's payload codec, its report's solution codec and
    the body lines of its text report (``probio.OWNERS``)."""
    from .probio import BOOL, ID_LIST, INT, STR, Leaf, List, Record, Table, array, doc

    frac = LazyExact("FRAC")
    # an int time is read and written as it is; any other goes through FRAC
    time = Leaf(lambda raw: raw if raw.__class__ is int else frac.parse(raw),
                lambda t, pad: INT.write(t, pad) if t.__class__ is int else frac.write(t, pad))
    stage = Record(
        ("time", time, "time"),
        ("decisions", List(Record(("id", STR, 0), ("priority", INT, 1)), 1), "decisions"),
        build=Stage,
    )
    payload = Record(
        ("stages", List(stage, 1), "spec.stages"),
        ("compat", Table(("from", STR), ("to", STR), ("value", INT)), "spec.compat"),
        ("all_pairs", BOOL, "all_pairs", False),
        build=lambda stages, compat, all_pairs: TrajectoryProblem(TrajectorySpec(stages, compat), all_pairs),
    )
    quality, quality_line = quality_codecs()

    def text(sol: dict) -> list[str]:
        return [
            "trajectory " + " -> ".join(entry["path"]) + "; " + quality_line(entry["quality"])
            for entry in sol["trajectories"]
        ]

    return payload, doc(("trajectories", array(doc(("path", ID_LIST), ("quality", quality))))), text
