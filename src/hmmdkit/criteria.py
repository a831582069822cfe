"""Criteria frames, the rules of estimate vectors under a frame, and the
arithmetic on those vectors.

A criteria frame is an ordered set of weighted criteria, each maximized or
minimized; every estimate vector it governs holds one value per criterion.
``oriented`` is the one place a criterion's direction is read, and
``oriented_columns`` applies it to whole columns of ints. scalarize
is the one weighted sum: utility ranking, knapsack and MCKP selection and
assignment reduce each estimate vector to one exact scalar through it.
as_ints lets the exact kernels run on ints, and vector_sum adds estimate
vectors componentwise. Only the weighted problem types (rank, knapsack,
mckp, assign, pipeline and improve) load this module: a synth,
trajectory, integrate, cluster or tsp run never compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from operator import attrgetter

from .core import ValidationError, check_unique, frozen
from .exact import EstimateVector, Number, as_frac


def check_lengths(frame: CriteriaFrame, entries: Iterable[tuple]) -> None:
    """Raise ``<label>: <n> values for <k> criteria`` at the first entry
    ``(vector, label, *args)`` whose estimate vector does not have one value
    per criterion of ``frame``; its label is ``label.format(*args)``."""
    k = len(frame)
    for entry in entries:
        n = len(entry[0].values)
        if n != k:
            raise ValidationError(f"{entry[1].format(*entry[2:])}: {n} values for {k} criteria")


def nonnegative(value: Number | str, what: str, *args: object, at: str = "") -> Fraction:
    """``as_frac(value)``; raise ``<what> must be nonnegative`` below 0, at
    the field ``at`` of the record being built (``ValidationError.at``)."""
    value = as_frac(value)
    if value < 0:
        exc = ValidationError(f"{what.format(*args)} must be nonnegative")
        exc.at = at
        raise exc
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
        object.__setattr__(self, "weight", nonnegative(self.weight, "criterion {!r}: weight", self.id, at=".weight"))


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


def check_rows(frame: CriteriaFrame, rows: Sequence[EstimateVector]) -> None:
    if not rows:
        raise ValidationError("empty row set")
    check_lengths(frame, ((row, "row {}", i) for i, row in enumerate(rows)))


def oriented(frame: CriteriaFrame, values: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """The larger-is-better view of one estimate vector under ``frame``:
    the value of each minimized criterion is negated."""
    return tuple(v if c.direction is Direction.MAXIMIZE else -v for c, v in zip(frame.criteria, values))


def oriented_columns(frame: CriteriaFrame, rows: Sequence[EstimateVector]) -> list[list[int]]:
    """Each criterion's column of ``rows`` as lcm-scaled ints (``as_ints``),
    larger is better: a minimized column's ints are negated. The directions
    are read once per frame, not once per row."""
    signs = oriented(frame, (1,) * len(frame))
    cols = zip(*(row.values for row in rows))
    return [as_ints(col) if sign > 0 else [-x for x in as_ints(col)] for sign, col in zip(signs, cols)]


def equal_weight_frame(k: int) -> CriteriaFrame:
    """Frame of k maximized criteria with equal weights."""
    if k < 1:
        raise ValidationError("a frame needs at least one criterion")
    return CriteriaFrame(tuple(Criterion(f"c{i + 1}") for i in range(k)))


def vector_sum(frame: CriteriaFrame, vectors: Sequence[EstimateVector]) -> EstimateVector:
    """Componentwise sum; the zero vector of ``frame`` when there are no vectors."""
    if not vectors:
        return EstimateVector([Fraction(0)] * len(frame))
    return EstimateVector([sum(col, Fraction(0)) for col in zip(*(v.values for v in vectors))])


def as_ints(values: Sequence[Fraction]) -> list[int]:
    """The values times the lcm of their denominators.

    Scaling by one positive constant keeps every order, sign and strict
    comparison of sums, so exact kernels can run on these ints instead.
    """
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def scalarize(
    frame: CriteriaFrame,
    values: Sequence[EstimateVector],
    weights: Sequence[Number] | None = None,
) -> list[Fraction]:
    """Scalar value per vector: weighted sum of min-max-normalized components.

    Weights default to the frame's. Explicit weights, one per criterion,
    replace them under the frame's rules: nonnegative, not all zero, and
    normalized to sum 1.
    """
    if weights is not None:
        if len(weights) != len(frame):
            raise ValidationError(f"{len(weights)} weights for {len(frame)} criteria")
        frame = CriteriaFrame(
            tuple(Criterion(c.id, c.direction, w) for c, w in zip(frame.criteria, weights))
        )
    check_rows(frame, values)
    # Column k adds w_k·(x - lo)/(hi - lo) on oriented values, and 1/2 for
    # a constant column. On the column's lcm-scaled ints (as_ints) that is
    # p·(x - lo) / (q·(hi - lo)) for w_k = p/q, so every term goes over one
    # common denominator and each row costs one Fraction.
    terms = []  # (p, column ints or None when constant, lo, denominator)
    for c, col in zip(frame.criteria, oriented_columns(frame, values)):
        if not c.weight:
            continue
        p, q = c.weight.numerator, c.weight.denominator
        lo, hi = min(col), max(col)
        if lo == hi:
            terms.append((p, None, 0, 2 * q))
        else:
            terms.append((p, col, lo, q * (hi - lo)))
    den = math.lcm(*(t[3] for t in terms))
    nums = [0] * len(values)
    for p, col, lo, d in terms:
        f = p * (den // d)
        if col is None:
            nums = [n + f for n in nums]
        else:
            nums = [n + f * (x - lo) for n, x in zip(nums, col)]
    return [Fraction(n, den) for n in nums]


def shapes() -> tuple:
    """The problem-file codecs of a criteria frame and of a matrix of
    estimate vectors (one row per agent or element, one vector per cell),
    built from ``probio``'s engine; the weighted types' ``codecs`` use them."""
    from .exact import FRAC, VECTOR
    from .probio import STR, List, Record, choice

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
