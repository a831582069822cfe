"""Weighted sums of estimate vectors.

scalarize is the one weighted sum: utility ranking, knapsack and MCKP
selection and assignment reduce each estimate vector to one exact scalar
through it. as_ints lets the exact kernels run on ints, and vector_sum
adds estimate vectors componentwise. A synth, cluster, tsp, trajectory or
integrate run never loads this module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import CriteriaFrame, Criterion, Direction, EstimateVector, Number, ValidationError, check_rows


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
    # Column k adds w_k·(x - lo)/(hi - lo), flipped for a minimized
    # criterion and 1/2 for a constant column. On the column's lcm-scaled
    # ints (as_ints) that is p·(x - lo) / (q·(hi - lo)) for w_k = p/q,
    # so every term goes over one common denominator and each row costs one
    # Fraction. A minimized column is p·(hi - x), that is -p·(x - hi).
    terms = []  # (p, column ints or None when constant, base, denominator)
    for k, c in enumerate(frame.criteria):
        if not c.weight:
            continue
        p, q = c.weight.numerator, c.weight.denominator
        col = as_ints([row.values[k] for row in values])
        lo, hi = min(col), max(col)
        if lo == hi:
            terms.append((p, None, 0, 2 * q))
        elif c.direction is Direction.MAXIMIZE:
            terms.append((p, col, lo, q * (hi - lo)))
        else:
            terms.append((-p, col, hi, q * (hi - lo)))
    den = math.lcm(*(t[3] for t in terms))
    nums = [0] * len(values)
    for p, col, base, d in terms:
        f = p * (den // d)
        if col is None:
            nums = [n + f for n in nums]
        else:
            nums = [n + f * (x - base) for n, x in zip(nums, col)]
    return [Fraction(n, den) for n in nums]
