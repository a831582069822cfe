"""Exact numbers: the one module that imports ``fractions``.

``as_frac`` turns an input number into a ``Fraction``, ``EstimateVector``
holds one exact estimate per criterion, and ``encode_number`` and
``render_number`` write an exact number back as a report shows it. The
codecs of exact numbers in files, ``FRAC``, ``NUM``, ``VECTOR``,
``MATRIX`` and ``FRACS``, are built on probio's engine by ``shapes()`` on
first use. Every problem type with weights, costs, thresholds or matrices
loads this module; a ``synth``, ``trajectory`` or ``integrate`` run loads
it only when its file holds a value that needs it (an alternative's
``estimates``, a stage ``time`` that is not an int), so an integer-only
file of those types loads no ``fractions``, ``decimal`` or ``numbers``.
"""

from __future__ import annotations

import math
import re
import reprlib
from collections.abc import Iterable
from fractions import Fraction
from functools import cache

from .core import ValidationError, frozen

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from typing import Any

Number = int | float | Fraction

#: the most digits of a number string's numerator or denominator: Python's
#: default int/str limit, past which no report could write the number
MAX_DIGITS = 4300
_PAST_MAX_DIGITS = 10**MAX_DIGITS


def as_frac(x: Number | str) -> Fraction:
    """Coerce a number to an exact Fraction; also the file codec FRAC's parse.

    Floats go through their shortest decimal repr, so 0.1 becomes 1/10
    rather than the binary expansion. Strings accept "p/q" and decimal
    forms. A bool, or a value of another type, is not a number. An error
    quotes a string as ``reprlib.repr`` does, cut to 30 characters.
    """
    if x.__class__ is int:  # before isinstance(x, Fraction), an ABC check
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValidationError(f"expected a finite number, got {x!r}")
        return Fraction(str(x))
    if isinstance(x, str):
        # int() refuses a run of more than MAX_DIGITS digits (underscores
        # apart), so count them first; and Fraction builds 10**exponent
        # first, which takes seconds for an exponent of a million
        long = len(x) > MAX_DIGITS and max(map(len, re.findall(r"\d+", x.replace("_", ""))), default=0) > MAX_DIGITS
        _, e, exponent = x.lower().partition("e")
        try:
            value = None if long or e and abs(int(exponent)) > MAX_DIGITS else Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a number: {reprlib.repr(x)}") from exc
        if value is None or max(abs(value.numerator), value.denominator) >= _PAST_MAX_DIGITS:
            raise ValidationError(f"number out of range: {reprlib.repr(x)} has more than {MAX_DIGITS} digits")
        return value
    raise ValidationError(f"expected a number, got {x!r}")


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


def encode_number(x: Any) -> Any:
    """Fraction -> int | exact decimal string | "p/q"; float/int unchanged."""
    if not isinstance(x, Fraction):
        return x
    num, den = x.as_integer_ratio()
    if den == 1:
        return num
    # a decimal form exists when den is 2**twos * 5**fives, and it has
    # max(twos, fives) digits after the point; log5 of a power of 5 rounds
    # to its exponent, and 10**k % den catches any other denominator
    twos = (den & -den).bit_length() - 1
    k = max(twos, round(math.log(den >> twos, 5)))
    if 10**k % den:
        return f"{num}/{den}"
    digits = str(abs(num) * 10**k // den).rjust(k + 1, "0")
    return ("-" if num < 0 else "") + f"{digits[:-k]}.{digits[-k:]}"


def render_number(x: Any) -> str:
    return str(encode_number(x))  # a float's str is its repr


# ------------------------------------------------------------------ codecs


def _number(raw: Any) -> Any:
    """Matrix entry: an int or a finite float as is, anything else as by ``as_frac``."""
    return raw if raw.__class__ is int or raw.__class__ is float and math.isfinite(raw) else as_frac(raw)


@cache
def shapes() -> dict:
    """The codecs of exact numbers, by name, built from ``probio``'s engine
    on first use: FRAC (an exact number), NUM (a matrix entry: an int or
    finite float kept as it is), VECTOR (an estimate vector), MATRIX (a
    non-empty matrix of NUM) and FRACS (a report array of FRAC)."""
    from .probio import Leaf, List, _text, array

    frac = Leaf(as_frac, lambda x, pad: _text(encode_number(x)))
    num = Leaf(_number, frac.write)
    return {"FRAC": frac, "NUM": num, "VECTOR": List(frac, 1, EstimateVector), "MATRIX": List(List(num), 1),
            "FRACS": array(frac)}


def __getattr__(name: str):
    """The codecs of ``shapes()``, importable by name (``from .exact import FRAC``)."""
    if name in ("FRAC", "NUM", "VECTOR", "MATRIX", "FRACS"):
        return shapes()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
