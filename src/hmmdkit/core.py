"""Shared domain types for criteria, ordinal scales and estimate vectors.

Everything downstream (ranking, selection, synthesis) works on exact
rational estimates; min-max normalization and the componentwise dominance
relation defined here are the two primitives every solver shares.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from fractions import Fraction
from operator import attrgetter

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: importing typing costs start-up time
    from typing import TypeVar

    T = TypeVar("T")
    K = TypeVar("K")

Number = int | float | Fraction

#: comparison tolerance wherever real (float) arithmetic is unavoidable
TOLERANCE = 1e-9


class ValidationError(ValueError):
    """An input violates a structural invariant."""


class GuardExceeded(RuntimeError):
    """An instance exceeds an enumeration or table-size guard."""


class InfeasibleError(RuntimeError):
    """The constraints admit no solution at all."""


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


def frozen(cls: type) -> type:
    """``dataclass(frozen=True)`` without importing ``dataclasses`` (and
    through it ``inspect``) or ``exec``-ing methods on every start-up.

    The fields are the class's own annotations, in order; a class attribute
    of the same name is that field's default. Adds ``__init__`` (then
    ``__post_init__``), ``__eq__`` and ``__hash__`` on the field tuple, the
    dataclass ``__repr__``, ``__match_args__``, and a ``__setattr__`` and
    ``__delattr__`` that raise FrozenInstanceError. A method the class
    defines itself is kept. There is no ``field()``, inheritance or
    ``ClassVar`` support.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n, key, missing = len(names), attrgetter(*names), object()
    if n == 1:  # hash a 1-tuple, as dataclasses does
        key = lambda self, get=key: (get(self),)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    tail, required = tuple(defaults.values()), n - len(defaults)
    post, setter = cls.__dict__.get("__post_init__"), object.__setattr__

    def bind(args: tuple, kwargs: dict) -> tuple:
        if not kwargs and required <= len(args) <= n:
            return args + tail[len(args) - required:]
        rest = [kwargs.pop(name, defaults.get(name, missing)) for name in names[len(args):]]
        # too many positional arguments, an unknown or repeated keyword, or a missing field
        if len(args) > n or kwargs or any(value is missing for value in rest):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        return (*args, *rest)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # object.__setattr__ keeps CPython's inline attribute values, which
        # self.__dict__.update would replace by a dict that slows every read
        for i in range(n):
            setter(self, names[i], args[i])
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
               "__setattr__": __setattr__, "__delattr__": __delattr__, "__match_args__": names}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def guard_limit(default: int) -> int:
    """Guard threshold, overridable through the HMMD_KIT_GUARD env variable."""
    raw = os.environ.get("HMMD_KIT_GUARD")
    if raw is None:
        return default
    message = f"HMMD_KIT_GUARD must be a positive integer, got {raw!r}"
    try:
        limit = int(raw)
    except ValueError as exc:
        raise ValidationError(message) from exc
    if limit < 1:
        raise ValidationError(message)
    return limit


def as_frac(x: Number | str) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats go through their shortest decimal repr, so 0.1 becomes 1/10
    rather than the binary expansion. Strings accept "p/q" and decimal
    forms.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValidationError(f"expected a finite number, got {x!r}")
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a number: {x!r}") from exc
    raise ValidationError(f"not a number: {x!r}")


def as_ints(values: Sequence[Fraction]) -> list[int]:
    """The values times the lcm of their denominators.

    Scaling by one positive constant keeps every order, sign and strict
    comparison of sums, so exact kernels can run on these ints instead.
    """
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


class Best(Enum):
    """Which end of an ordinal scale is the good one."""

    HIGH = "high"
    LOW = "low"


@frozen
class OrdinalScale:
    lo: int
    hi: int
    best: Best

    def __post_init__(self) -> None:
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
            raise ValidationError("scale bounds must be integers")
        if self.lo > self.hi:
            raise ValidationError(f"scale bounds out of order: [{self.lo}, {self.hi}]")

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi


#: compatibility scale of morphological systems and trajectory specs
DEFAULT_COMPAT_SCALE = OrdinalScale(0, 3, Best.HIGH)
#: priority scale of design alternatives (1 is best)
DEFAULT_PRIORITY_SCALE = OrdinalScale(1, 3, Best.LOW)


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
        object.__setattr__(self, "weight", as_frac(self.weight))
        if self.weight < 0:
            raise ValidationError(f"criterion {self.id!r}: weight must be nonnegative")


@frozen
class CriteriaFrame:
    """An ordered, non-empty set of criteria with weights normalized to sum 1."""

    criteria: tuple[Criterion, ...]

    def __post_init__(self) -> None:
        crits = tuple(self.criteria)
        if not crits:
            raise ValidationError("a criteria frame needs at least one criterion")
        ids = [c.id for c in crits]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate criterion ids: {ids}")
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


def equal_weight_frame(k: int) -> CriteriaFrame:
    """Frame of k maximized criteria with equal weights."""
    if k < 1:
        raise ValidationError("a frame needs at least one criterion")
    return CriteriaFrame(tuple(Criterion(f"c{i + 1}") for i in range(k)))


@frozen
class EstimateVector:
    """One estimate per criterion of the governing frame."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[Number | str]) -> None:
        object.__setattr__(self, "values", tuple(as_frac(v) for v in values))
        if not self.values:
            raise ValidationError("an estimate vector must not be empty")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def conforms(self, frame: CriteriaFrame) -> bool:
        return len(self.values) == len(frame)


def vector_sum(frame: CriteriaFrame, vectors: Sequence[EstimateVector]) -> EstimateVector:
    """Componentwise sum; the zero vector of ``frame`` when there are no vectors."""
    if not vectors:
        return EstimateVector([Fraction(0)] * len(frame))
    return EstimateVector([sum(col, Fraction(0)) for col in zip(*(v.values for v in vectors))])


def check_dissimilarities(ids: Sequence[str], d: Sequence[Sequence[Number]]) -> None:
    """Distinct ids and an n x n matrix with a zero diagonal, no negative
    entry and d[i][j] == d[j][i]."""
    if not ids:
        raise ValidationError("a dissimilarity matrix needs at least one id")
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate ids: {list(ids)}")
    n = len(ids)
    if len(d) != n or any(len(row) != n for row in d):
        raise ValidationError(f"matrix must be {n}x{n}")
    for i in range(n):
        if d[i][i] != 0:
            raise ValidationError(f"diagonal entry d[{i}][{i}] must be 0")
        for j in range(n):
            if d[i][j] < 0:
                raise ValidationError(f"negative dissimilarity d[{i}][{j}]")
            if d[i][j] != d[j][i]:
                raise ValidationError(
                    f"matrix must be symmetric: d[{i}][{j}] != d[{j}][{i}]"
                )


def check_rows(frame: CriteriaFrame, rows: Sequence[EstimateVector]) -> None:
    if not rows:
        raise ValidationError("empty row set")
    for i, row in enumerate(rows):
        if not row.conforms(frame):
            raise ValidationError(
                f"row {i} has {len(row)} values, frame has {len(frame)} criteria"
            )


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


def dominates(a: EstimateVector, b: EstimateVector) -> bool:
    """Strict componentwise dominance on canonical (larger-is-better) vectors."""
    if len(a) != len(b):
        raise ValidationError(f"vector length mismatch: {len(a)} vs {len(b)}")
    ge_all = all(x >= y for x, y in zip(a, b))
    return ge_all and any(x > y for x, y in zip(a, b))


def non_dominated(
    items: Sequence[T], dom: Callable[[K, K], bool], key: Callable[[T], K] | None = None
) -> list[T]:
    """Items whose key no other item's key strictly dominates, in input order.

    Only the distinct (hashable) keys are compared; the default key is the
    item. ``dom`` must be strict, so equal keys never dominate each other
    and the result equals an all-pairs comparison of the items.
    """
    keys = list(items) if key is None else [key(x) for x in items]
    distinct = list(dict.fromkeys(keys))
    alive = {k for k in distinct if not any(dom(o, k) for o in distinct)}
    return [x for x, k in zip(items, keys) if k in alive]


def pareto_layers(
    items: Sequence[T], dom: Callable[[K, K], bool], key: Callable[[T], K] | None = None
) -> list[int]:
    """1-based layer index per item: peel the non-dominated keys repeatedly."""
    keys = list(items) if key is None else [key(x) for x in items]
    remaining = list(dict.fromkeys(keys))
    layer: dict[K, int] = {}
    current = 1
    while remaining:
        front = non_dominated(remaining, dom)
        if not front:  # cannot happen for a strict partial order
            raise ValidationError("dominance relation admits a cycle")
        layer.update(dict.fromkeys(front, current))
        remaining = [k for k in remaining if k not in layer]
        current += 1
    return [layer[k] for k in keys]
