"""Shared domain types: errors, frozen records, guards, ordinal scales,
the record rules and the dominance relation.

Everything downstream (ranking, selection, synthesis) works on exact
rational estimates; the componentwise dominance relation defined here is
the primitive every solver shares. Exact numbers (``as_frac``, estimate
vectors and their codecs) and the dissimilarity-matrix check live in
``exact``, the one module that imports ``fractions``, so a run whose file
needs no Fraction never loads or compiles them.
Criteria frames live in ``criteria``, which only the weighted problem
types load, and Pareto layers and min-max normalization in ``rank``;
their names, and ``EstimateVector``, stay importable from here.
"""

from __future__ import annotations

import os
from collections.abc import Hashable, Sequence
from enum import Enum
from operator import attrgetter, ge, gt

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from .exact import Number

#: names that moved to ``criteria``, ``rank`` and ``exact``, still importable from here
_MOVED = {
    **dict.fromkeys(("Direction", "Criterion", "CriteriaFrame"), "criteria"),
    **dict.fromkeys(("normalize_estimates", "pareto_layers"), "rank"),
    "EstimateVector": "exact",
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MOVED[name]}", __package__), name)


class ValidationError(ValueError):
    """An input violates a structural invariant."""
    at = ""  #: the failing value's path below the value being read (probio's codecs)


class GuardExceeded(RuntimeError):
    """An instance exceeds an enumeration or table-size guard."""


class InfeasibleError(RuntimeError):
    """The constraints admit no solution at all."""


class OracleError(RuntimeError):
    """A solution fails the cross-check that ``hmmdkit --oracle`` runs."""


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


def check_guard(size: int, default: int, what: str) -> None:
    """Raise GuardExceeded when ``size`` (counted in ``what``) is above the
    guard: ``default``, or HMMD_KIT_GUARD when set."""
    limit = guard_limit(default)
    if size > limit:
        raise GuardExceeded(f"{size} {what} exceed guard {limit}")


# The record rules (``criteria`` holds the two about frames). Each message
# is formatted only on failure: ``message.format(*args)`` names the record
# or the entry.


def check_unique(ids: Sequence[Hashable], message: str, *args: object) -> None:
    """Raise ``<message> '<first repeated id>'`` unless the ids are distinct."""
    if len(set(ids)) != len(ids):
        seen = set()
        for x in ids:
            if x in seen:
                raise ValidationError(f"{message.format(*args)} {x!r}")
            seen.add(x)


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


def dominates(a: Sequence[Number], b: Sequence[Number]) -> bool:
    """Strict componentwise dominance on canonical (larger-is-better) vectors:
    estimate vectors, objective tuples and morph quality keys alike."""
    if len(a) != len(b):
        raise ValidationError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return all(map(ge, a, b)) and any(map(gt, a, b))


def non_dominated(keys: Sequence[Sequence[Number]]) -> list:
    """The distinct keys that no key strictly dominates, largest first.

    Keys must be orderable vectors, such as tuples of ints. Each distinct
    key, largest first, is tested by ``dominates`` against the front kept
    so far (Kung, Luccio & Preparata, JACM 1975): a strict dominator is
    lexicographically larger, and dominance is transitive.
    """
    front: list = []
    for k in sorted(set(keys), reverse=True):
        if not any(dominates(f, k) for f in front):
            front.append(k)
    return front
