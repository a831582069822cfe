"""Versioned text format for problem instances and solver results.

One self-describing JSON document per file: a spec_version, a
problem_type discriminator, and a type-specific payload. Numbers are
exact end to end: rationals serialize as ints, exact decimal strings, or
"p/q" strings; floats keep their shortest repr. Structured output is
canonical (sorted keys), so identical runs emit identical bytes. The
number encoding and the codecs of exact numbers live in ``exact``, which
builds them on this engine, so this module imports no ``fractions``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Container, Iterable
from enum import Enum
from functools import cache
from importlib import import_module
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter

from .core import OrdinalScale, ValidationError, check_unique, frozen

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; probio reaches a domain module through OWNERS
    from typing import Any

    from .core import Best

SPEC_VERSION = 1


class ParseError(ValidationError):
    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class ResultFormat(Enum):
    STRUCTURED = "json"
    TEXT = "text"


# ---------------------------------------------------------- low-level access


def fail(message: str, at: str = "") -> None:
    """Raise a ValidationError at the relative path ``at`` below the value being read."""
    exc = ValidationError(message)
    exc.at = at
    raise exc


class _Repeated(dict):
    """A JSON object that repeats a key; ``read_keys`` lists its keys as read."""


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """``json.loads`` object hook: the object, flagged when a key repeats,
    which plain ``json.loads`` would drop silently."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        obj = _Repeated(obj)
        obj.read_keys = [key for key, _ in pairs]
    return obj


def _obj(raw: Any, required: Iterable[str], optional: Iterable[str] = ()) -> None:
    if not isinstance(raw, dict):
        fail(f"expected an object, got {type(raw).__name__}")
    if raw.__class__ is _Repeated:
        check_unique(raw.read_keys, "duplicate key")
    missing = sorted(set(required) - set(raw))
    if missing:
        fail(f"missing keys {missing}")
    unknown = sorted(set(raw) - set(required) - set(optional))
    if unknown:
        fail(f"unknown keys {unknown}")


def _list(raw: Any, min_len: int = 0) -> None:
    if not isinstance(raw, list):
        fail(f"expected an array, got {type(raw).__name__}")
    if len(raw) < min_len:
        fail(f"expected at least {min_len} entries, got {len(raw)}")


def _str(raw: Any) -> str:
    if not isinstance(raw, str) or not raw:
        fail("expected a non-empty string")
    if not raw.isascii():
        # json.loads reads a lone surrogate escape, "\ud800", into a str
        # that no text report could write as UTF-8
        try:
            raw.encode()
        except UnicodeEncodeError:
            fail(f"not UTF-8 text: {raw!r} holds a lone surrogate")
    return raw


def _int(raw: Any) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        fail(f"expected an integer, got {raw!r}")
    return raw


def _bool(raw: Any) -> bool:
    if not isinstance(raw, bool):
        fail(f"expected a boolean, got {raw!r}")
    return raw


class wrap:
    """Locate a ValidationError raised in the block at ``step`` below the value being read."""

    def __init__(self, step: str) -> None:
        self.step = step

    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> bool:
        if isinstance(exc, ValidationError):
            exc.at = self.step + exc.at
        return False


# -------------------------------------------------------------------- codecs
#
# A codec reads one JSON shape into a value with parse(raw) and writes the
# value back as JSON text with write(value, pad), laid out as
# ``json.dumps(sort_keys=True, indent=2)`` lays it out, with ``pad`` the
# indent of the line the value starts on. Each problem type's shapes are
# built from these codecs by ``codecs`` in the module that owns the type
# (OWNERS), so a key is named in one place only. A codec or a ``build`` raises a plain
# ValidationError for the value it is reading; each List, Map, Record or
# Table the error passes out of prepends to its ``at`` the step that read
# the failing value, ``[i]`` or ``.key``, and a file reader raises it as
# one ParseError at root + ``at``. So a path is put together only on failure.


def _text(x: Any, pad: str = "") -> str:
    """JSON text of a scalar, byte for byte as ``json.dumps`` writes it."""
    if x.__class__ is str:
        return _quote(x)
    if x.__class__ is int:
        return int.__repr__(x)
    return json.dumps(x)  # bool, None and floats, NaN and the infinities among them


def _join(texts: list[str], inner: str, pad: str, brackets: str) -> str:
    """An array or object of the entry ``texts``, one a line at ``inner``."""
    if not texts:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}{brackets[1]}"


class Leaf:
    """A scalar: ``parse`` checks and converts it, ``write`` writes its text."""

    def __init__(self, parse: Callable[[Any], Any], write: Callable[[Any, str], str] = _text) -> None:
        self.parse, self.write = parse, write


def choice(enum: type[Enum]) -> Leaf:
    """An enum member written as its value."""
    values = tuple(e.value for e in enum)
    expected = ", ".join(map(repr, values[:-1])) + f" or {values[-1]!r}"

    def parse(raw: Any) -> Enum:
        if raw not in values:
            fail(f"expected {expected}, got {raw!r}")
        return enum(raw)

    return Leaf(parse, lambda member, pad: _text(member.value))


class List:
    """An array of ``item``; ``build`` makes the value from the parsed tuple
    and ``entries`` reads the entries back from it."""

    def __init__(self, item: Any, min_len: int = 0, build: Callable = tuple, entries: Callable = iter) -> None:
        self.item, self.min_len, self.build, self.entries = item, min_len, build, entries

    def parse(self, raw: Any) -> Any:
        parse, vals = self.item.parse, []
        _list(raw, self.min_len)
        try:
            for x in raw:
                vals.append(parse(x))
        except ValidationError as exc:
            exc.at = f"[{len(vals)}]{exc.at}"  # one value per entry read before it
            raise
        return self.build(tuple(vals))

    def write(self, value: Any, pad: str) -> str:
        write, inner, texts = self.item.write, pad + "  ", []
        for x in self.entries(value):
            texts.append(write(x, inner))
        return _join(texts, inner, pad, "[]")


class Map:
    """An object with free keys and ``value`` entries."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def parse(self, raw: Any) -> dict:
        out = {}
        _obj(raw, (), raw)  # any key is allowed
        try:
            for k, v in raw.items():
                out[k] = self.value.parse(v)
        except ValidationError as exc:
            exc.at = f".{k}{exc.at}"
            raise
        return out

    def write(self, value: dict, pad: str) -> str:
        """Keys sorted; a key that is not a str raises TypeError."""
        write, inner, texts = self.value.write, pad + "  ", []
        for k in sorted(value):
            texts.append(f"{_quote(k)}: {write(value[k], inner)}")
        return _join(texts, inner, pad, "{}")


def _getter(get: Any) -> Callable[[Any], Any]:
    if isinstance(get, str):
        return attrgetter(get)
    if isinstance(get, int):
        return itemgetter(get)
    return get


class Record:
    """An object with fixed keys, one ``(key, codec, getter[, default])``
    field each; a field without a default is required.

    The getter reads the field back from the built value: a dotted
    attribute name, a tuple index or a callable. The parsed fields go to
    ``build`` in table order. ``write`` writes the fields sorted by key,
    leaves out an optional field whose getter returns None and hands a
    required one to its codec.
    """

    def __init__(self, *fields: tuple, build: Callable = lambda *vals: vals) -> None:
        self.fields = [(key, codec, _getter(get), default) for key, codec, get, *default in fields]
        self.keys = [f[0] for f in self.fields]
        self.required = [key for key, _, _, default in self.fields if not default]
        self.need, self.allowed = frozenset(self.required), frozenset(self.keys)
        self.build = build
        self.writers = [(_quote(key) + ": ", *field) for key, *field in sorted(self.fields, key=itemgetter(0))]

    def parse(self, raw: Any) -> Any:
        # a plain dict with the right keys passes; anything else gets _obj's
        # message (a repeated key makes a _Repeated, never a dict)
        if not (raw.__class__ is dict and self.need <= raw.keys() <= self.allowed):
            _obj(raw, self.required, self.keys)
        vals = []
        try:
            for key, codec, _, default in self.fields:
                vals.append(codec.parse(raw[key]) if key in raw else default[0])
        except ValidationError as exc:
            exc.at = f".{key}{exc.at}"
            raise
        return self.build(*vals)

    def write(self, value: Any, pad: str) -> str:
        inner, texts = pad + "  ", []
        for name, codec, get, default in self.writers:
            x = get(value)
            if x is not None or not default:
                texts.append(name + codec.write(x, inner))
        return _join(texts, inner, pad, "{}")


class Table:
    """Rows parsed into ``{key: value}``: the last field is the value, the
    others the key (a single key field is the key itself). A repeated key
    is an error; rows are written sorted by key."""

    def __init__(self, *fields: tuple, min_len: int = 0) -> None:
        self.row = Record(*((key, codec, i) for i, (key, codec) in enumerate(fields)))
        self.flat, self.min_len = len(fields) > 2, min_len
        # a table is written as the array of its rows, sorted by key
        self.write = List(self.row, 0, tuple,
                          lambda table: sorted((*k, v) if self.flat else (k, v) for k, v in table.items())).write

    def parse(self, raw: Any) -> dict:
        table = {}
        _list(raw, self.min_len)
        try:
            for row in raw:
                *key, value = self.row.parse(row)
                key = tuple(key) if self.flat else key[0]
                if key in table:
                    fail(f"duplicate entry for {key!r}")
                table[key] = value
        except ValidationError as exc:
            exc.at = f"[{len(table)}]{exc.at}"  # one entry per row read before it
            raise
        return table


class Ref:
    """Forward reference for a recursive shape; set ``target`` once it exists."""

    target: Any

    def parse(self, raw: Any) -> Any:
        return self.target.parse(raw)

    def write(self, value: Any, pad: str) -> str:
        return self.target.write(value, pad)


def nullable(codec: Any) -> Leaf:
    """``codec``, or JSON null for None."""
    return Leaf(lambda raw: None if raw is None else codec.parse(raw),
                lambda value, pad: "null" if value is None else codec.write(value, pad))


def doc(*fields: tuple) -> Record:
    """A record read into a dict, with one required ``(key, codec)`` field per key."""
    keys = [key for key, _ in fields]
    return Record(*((key, codec, itemgetter(key)) for key, codec in fields), build=lambda *vals: dict(zip(keys, vals)))


def array(item: Any) -> List:
    """A report array, read into a list."""
    return List(item, 0, list)


# ------------------------------------------------------------ shared shapes
#
# Only shapes built from core types live here; a shape naming a domain
# class is built by its owner module (a criteria frame's by
# ``criteria.shapes``), and the exact numbers' by ``exact.shapes``, so
# importing probio loads no solver module and no ``fractions``.


STR, INT, BOOL = Leaf(_str), Leaf(_int), Leaf(_bool)
IDS = List(STR, 1)
# report shapes
ID_LIST = array(STR)
PAIRS = array(ID_LIST)  # [id, id] entries


def scale(best: Best) -> Record:
    return Record(("lo", INT, "lo"), ("hi", INT, "hi"), build=lambda lo, hi: OrdinalScale(lo, hi, best))


# --------------------------------------------------------------- per problem


@frozen
class ProblemFile:
    spec_version: int
    problem_type: str
    payload: Any


#: problem_type -> the module that owns the type: its domain records, its
#: ``<Type>Problem`` record, its report_<subcommand> functions and
#: ``codecs()``, which returns its payload codec, its
#: report-solution codec and its text-report lines
OWNERS = {
    "rank": "rank",
    "knapsack": "knapsack",
    "mckp": "mckp",
    "cluster": "cluster",
    "assign": "assign",
    "tsp": "route",
    "morph": "synth",
    "trajectory": "trajectory",
    "integrate": "integrate",
    "pipeline": "pipeline",
    "improve": "improve",
}

#: the problem records (``MorphProblem`` and so on), each moved to the owner
#: of its type, still importable from here
_MOVED = {f"{ptype.capitalize()}Problem": owner for ptype, owner in OWNERS.items()}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MOVED[name]}", __package__), name)


@cache
def _codecs(problem_type: str) -> tuple:
    """(payload codec, report-solution codec, text-report body lines) of
    ``problem_type``, built by its owner module on first use."""
    return import_module(f".{OWNERS[problem_type]}", __package__).codecs()


def _read(parse: Callable, raw: Any, root: str) -> Any:
    """``parse(raw)``, a ValidationError raised as the ParseError at ``root + exc.at``."""
    try:
        return parse(raw)
    except ValidationError as exc:
        raise ParseError(root + exc.at, str(exc)) from exc


def _envelope(text: str, kind: str, kinds: Container[str], *keys: str) -> dict:
    """The top-level object of a file, after the checks every file shares:
    JSON with exactly the keys spec_version, ``kind`` and ``keys``, the
    current spec_version, and a ``kind`` value among ``kinds``."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's int/str digit limit
        raise ParseError("$", f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("$", "nested too deeply") from None
    _read(lambda raw: _obj(raw, ("spec_version", kind, *keys)), doc, "$")
    version = _read(_int, doc["spec_version"], "$.spec_version")
    if version != SPEC_VERSION:
        raise ParseError("$.spec_version", f"unsupported version {version}, expected {SPEC_VERSION}")
    if _read(_str, doc[kind], f"$.{kind}") not in kinds:
        raise ParseError(f"$.{kind}", f"unknown {kind.replace('_', ' ')} {doc[kind]!r}")
    return doc


def parse_problem(text: str) -> ProblemFile:
    """Parse and fully validate a problem file.

    Every structural invariant of the target instance is checked here;
    error messages carry the JSON path of the offending value. Unknown
    keys are rejected.
    """
    doc = _envelope(text, "problem_type", OWNERS, "payload")
    ptype = doc["problem_type"]
    try:
        return ProblemFile(SPEC_VERSION, ptype, _read(_codecs(ptype)[0].parse, doc["payload"], "$.payload"))
    except RecursionError:  # a codec recurses through a tree's Ref, level by level
        raise ParseError("$", "nested too deeply") from None


def write_problem(pf: ProblemFile) -> str:
    """Canonical text for a problem file (sorted keys, exact numbers)."""
    file = Record(("spec_version", INT, "spec_version"), ("problem_type", STR, "problem_type"),
                  ("payload", _codecs(pf.problem_type)[0], "payload"))
    try:
        return file.write(pf, "") + "\n"
    except RecursionError:  # a codec recurses through a tree's Ref, level by level
        raise ValidationError("nested too deeply") from None


# -------------------------------------------------------------------- results
#
# A report's solution stays a plain dict tree, indexed like its JSON: each
# problem type's shape is one dict record from its owner's ``codecs``, and
# the same record writes the report and reads it back strictly.


@frozen
class ResultFile:
    spec_version: int
    problem_type: str
    method: str
    solution: dict
    diagnostics: dict


_DIAGNOSTICS = Map(STR)


def write_result(result: ResultFile, fmt: ResultFormat = ResultFormat.STRUCTURED) -> str:
    """Structured: canonical machine format. Text: human-readable report."""
    _, solution, text = _codecs(result.problem_type)
    try:
        if fmt is ResultFormat.TEXT:
            lines = [f"problem: {result.problem_type}", f"method: {result.method}", *text(result.solution)]
            return "\n".join(lines) + "\n"
        return Record(
            ("spec_version", INT, "spec_version"),
            ("problem_type", STR, "problem_type"),
            ("method", STR, "method"),
            ("solution", solution, "solution"),
            ("diagnostics", _DIAGNOSTICS, lambda r: {k: v for k, v in r.diagnostics.items() if v is not None}),
        ).write(result, "") + "\n"
    except RecursionError:  # a value nested past the recursion limit
        raise ValidationError("nested too deeply") from None


def parse_result(text: str) -> ResultFile:
    """Parse a structured report strictly: an unknown key, a wrong type or
    another spec_version fails with its JSON path."""
    doc = _envelope(text, "problem_type", OWNERS, "method", "solution", "diagnostics")
    ptype = doc["problem_type"]
    return ResultFile(
        spec_version=SPEC_VERSION,
        problem_type=ptype,
        method=_read(_str, doc["method"], "$.method"),
        solution=_read(_codecs(ptype)[1].parse, doc["solution"], "$.solution"),
        diagnostics=_read(_DIAGNOSTICS.parse, doc["diagnostics"], "$.diagnostics"),
    )


# ------------------------------------------------------------------- fixtures


_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture_path(name: str) -> str:
    """Absolute path of a shipped fixture file."""
    return os.path.join(_FIXTURES, name)


def load_fixture(name: str) -> str:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()
