"""Criteria frames and the rules of estimate vectors under a frame.

A criteria frame is an ordered set of weighted criteria, each maximized or
minimized; every estimate vector it governs holds one value per criterion.
Only the weighted problem types (rank, knapsack, mckp, assign, pipeline
and improve) load this module: a synth, trajectory, integrate, cluster or
tsp run never compiles it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from enum import Enum
from fractions import Fraction
from operator import attrgetter

from .core import EstimateVector, Number, ValidationError, as_frac, check_unique, frozen, non_dominated


def check_lengths(frame: CriteriaFrame, entries: Iterable[tuple]) -> None:
    """Raise ``<label>: <n> values for <k> criteria`` at the first entry
    ``(vector, label, *args)`` whose estimate vector does not have one value
    per criterion of ``frame``; its label is ``label.format(*args)``."""
    k = len(frame)
    for entry in entries:
        n = len(entry[0].values)
        if n != k:
            raise ValidationError(f"{entry[1].format(*entry[2:])}: {n} values for {k} criteria")


def nonnegative(value: Number | str, what: str, *args: object) -> Fraction:
    """``as_frac(value)``; raise ``<what> must be nonnegative`` below 0."""
    value = as_frac(value)
    if value < 0:
        raise ValidationError(f"{what.format(*args)} must be nonnegative")
    return value


class Direction(Enum):
    MAXIMIZE = "max"
    MINIMIZE = "min"


@frozen
class Criterion:
    id: str
    direction: Direction = Direction.MAXIMIZE
    weight: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ValidationError("criterion id must be a non-empty string")
        object.__setattr__(self, "weight", nonnegative(self.weight, "criterion {!r}: weight", self.id))


@frozen
class CriteriaFrame:
    """An ordered, non-empty set of criteria with weights normalized to sum 1."""

    criteria: tuple[Criterion, ...]

    def __post_init__(self) -> None:
        crits = tuple(self.criteria)
        if not crits:
            raise ValidationError("a criteria frame needs at least one criterion")
        check_unique([c.id for c in crits], "duplicate criterion id")
        total = sum((c.weight for c in crits), Fraction(0))
        if total == 0:
            raise ValidationError("criterion weights must not all be zero")
        if total != 1:
            crits = tuple(
                Criterion(c.id, c.direction, c.weight / total) for c in crits
            )
        object.__setattr__(self, "criteria", crits)

    def __len__(self) -> int:
        return len(self.criteria)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(c.weight for c in self.criteria)

    @property
    def directions(self) -> tuple[Direction, ...]:
        return tuple(c.direction for c in self.criteria)


def check_rows(frame: CriteriaFrame, rows: Sequence[EstimateVector]) -> None:
    if not rows:
        raise ValidationError("empty row set")
    check_lengths(frame, ((row, "row {}", i) for i, row in enumerate(rows)))


def normalize_estimates(
    frame: CriteriaFrame, rows: Sequence[EstimateVector]
) -> list[EstimateVector]:
    """Min-max rescale each criterion over the rows to canonical [0, 1] form.

    Minimized criteria are flipped so 1 is always best; a criterion that is
    constant across the rows maps to 1/2 for every row (neutral, so it never
    biases a utility sum).
    """
    check_rows(frame, rows)
    cols = list(zip(*(row.values for row in rows)))
    out_cols: list[list[Fraction]] = []
    for k, direction in enumerate(frame.directions):
        lo, hi = min(cols[k]), max(cols[k])
        if lo == hi:
            out_cols.append([Fraction(1, 2)] * len(rows))
        elif direction is Direction.MAXIMIZE:
            out_cols.append([(v - lo) / (hi - lo) for v in cols[k]])
        else:
            out_cols.append([(hi - v) / (hi - lo) for v in cols[k]])
    return [EstimateVector(vals) for vals in zip(*out_cols)]


def pareto_layers(items: Sequence, dom: Callable, key: Callable | None = None) -> list[int]:
    """1-based layer index per item: peel the non-dominated keys repeatedly
    (``core.non_dominated``'s ``dom`` and ``key``)."""
    keys = list(items) if key is None else [key(x) for x in items]
    remaining = list(dict.fromkeys(keys))
    layer: dict[Hashable, int] = {}
    current = 1
    while remaining:
        front = non_dominated(remaining, dom)
        if not front:  # cannot happen for a strict partial order
            raise ValidationError("dominance relation admits a cycle")
        layer.update(dict.fromkeys(front, current))
        remaining = [k for k in remaining if k not in layer]
        current += 1
    return [layer[k] for k in keys]


def shapes() -> tuple:
    """The problem-file codecs of a criteria frame and of a matrix of
    estimate vectors (one row per agent or element, one vector per cell),
    built from ``probio``'s engine; the weighted types' ``codecs`` use them."""
    from .probio import FRAC, STR, VECTOR, List, Record, choice

    frame = List(
        Record(
            ("id", STR, "id"),
            ("direction", choice(Direction), "direction", Direction.MAXIMIZE),
            ("weight", FRAC, "weight", Fraction(1)),
            build=Criterion,
        ),
        1,
        CriteriaFrame,
        attrgetter("criteria"),
    )
    return frame, List(List(VECTOR), 1)
