"""Versioned text format for problem instances and solver results.

One self-describing JSON document per file: a spec_version, a
problem_type discriminator, and a type-specific payload. Numbers are
exact end to end: rationals serialize as ints, exact decimal strings, or
"p/q" strings; floats keep their shortest repr. Structured output is
canonical (sorted keys), so identical runs emit identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Container, Iterable
from enum import Enum
from fractions import Fraction
from functools import cache
from operator import attrgetter, itemgetter

from .core import (
    Best,
    Criterion,
    CriteriaFrame,
    Direction,
    EstimateVector,
    OrdinalScale,
    ValidationError,
    as_frac,
    frozen,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; each codec imports its own domain module
    from typing import Any

    from .assign import AssignmentInstance
    from .cluster import DissimilarityMatrix, Linkage
    from .frameworks import ImprovementSpec, IntegrationNode, ThreeSetSpec, TrajectorySpec
    from .morph import MorphSystem, QualityVector
    from .rank import RankingInstance
    from .route import TspInstance
    from .select import KnapsackInstance, MckpInstance

SPEC_VERSION = 1


class ParseError(ValidationError):
    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class ResultFormat(Enum):
    STRUCTURED = "json"
    TEXT = "text"


# ----------------------------------------------------------- number encoding


def encode_number(x: Any) -> Any:
    """Fraction -> int | exact decimal string | "p/q"; float/int unchanged."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        num, den = x.numerator, x.denominator
        rest, twos, fives = den, 0, 0
        while rest % 2 == 0:
            rest //= 2
            twos += 1
        while rest % 5 == 0:
            rest //= 5
            fives += 1
        if rest == 1:
            k = max(twos, fives)
            digits = str(abs(num) * 10**k // den).rjust(k + 1, "0")
            return ("-" if num < 0 else "") + f"{digits[:-k]}.{digits[-k:]}"
        return f"{num}/{den}"
    return x


def render_number(x: Any) -> str:
    enc = encode_number(x)
    if isinstance(enc, float):
        return repr(enc)
    return str(enc)


# ---------------------------------------------------------- low-level access


def _fail(path: str, message: str) -> None:
    raise ParseError(path, message)


def _obj(raw: Any, path: str, required: Iterable[str], optional: Iterable[str] = ()) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    missing = sorted(set(required) - set(raw))
    if missing:
        _fail(path, f"missing keys {missing}")
    unknown = sorted(set(raw) - set(required) - set(optional))
    if unknown:
        _fail(path, f"unknown keys {unknown}")
    return raw


def _list(raw: Any, path: str, min_len: int = 0) -> list:
    if not isinstance(raw, list):
        _fail(path, f"expected an array, got {type(raw).__name__}")
    if len(raw) < min_len:
        _fail(path, f"expected at least {min_len} entries, got {len(raw)}")
    return raw


def _str(raw: Any, path: str) -> str:
    if not isinstance(raw, str) or not raw:
        _fail(path, "expected a non-empty string")
    return raw


def _int(raw: Any, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(path, f"expected an integer, got {raw!r}")
    return raw


def _bool(raw: Any, path: str) -> bool:
    if not isinstance(raw, bool):
        _fail(path, f"expected a boolean, got {raw!r}")
    return raw


def _frac(raw: Any, path: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str, Fraction)):
        _fail(path, f"expected a number, got {raw!r}")
    try:
        return as_frac(raw)
    except ValidationError as exc:
        _fail(path, str(exc))


def _number(raw: Any, path: str) -> Any:
    """Matrix entry: int stays int, float stays float, string becomes exact."""
    if isinstance(raw, bool):
        _fail(path, f"expected a number, got {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        _fail(path, f"expected a finite number, got {raw!r}")
    if isinstance(raw, (int, float)):
        return raw
    if isinstance(raw, str):
        try:
            return as_frac(raw)
        except ValidationError as exc:
            _fail(path, str(exc))
    _fail(path, f"expected a number, got {raw!r}")


class _wrap:
    """Re-raise domain validation errors with position information."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> bool:
        if isinstance(exc, ValidationError) and not isinstance(exc, ParseError):
            raise ParseError(self.path, str(exc)) from exc
        return False


# -------------------------------------------------------------------- codecs
#
# A codec reads one JSON shape into a value with parse(raw, path) and
# writes the value back with dump(value). Each problem type is one record,
# built by its function in _PROBLEMS, so a payload key is named in one
# place only.


class _Leaf:
    """A scalar: ``parse`` checks and converts it, ``dump`` encodes it."""

    def __init__(self, parse: Callable[[Any, str], Any], dump: Callable[[Any], Any] = lambda v: v) -> None:
        self.parse, self.dump = parse, dump


def _choice(enum: type[Enum]) -> _Leaf:
    """An enum member written as its value."""
    values = tuple(e.value for e in enum)
    expected = ", ".join(map(repr, values[:-1])) + f" or {values[-1]!r}"

    def parse(raw: Any, path: str) -> Enum:
        if raw not in values:
            _fail(path, f"expected {expected}, got {raw!r}")
        return enum(raw)

    return _Leaf(parse, attrgetter("value"))


class _List:
    """An array of ``item``; ``build`` makes the value from the parsed tuple
    and ``entries`` reads the entries back from it."""

    def __init__(self, item: Any, min_len: int = 0, build: Callable = tuple, entries: Callable = iter) -> None:
        self.item, self.min_len, self.build, self.entries = item, min_len, build, entries

    def parse(self, raw: Any, path: str) -> Any:
        parse = self.item.parse
        vals = tuple(parse(x, f"{path}[{i}]") for i, x in enumerate(_list(raw, path, self.min_len)))
        with _wrap(path):
            return self.build(vals)

    def dump(self, value: Any) -> list:
        return [self.item.dump(x) for x in self.entries(value)]


class _Map:
    """An object with free keys and ``value`` entries."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def parse(self, raw: Any, path: str) -> dict:
        _obj(raw, path, (), raw)  # any key is allowed
        return {k: self.value.parse(v, f"{path}.{k}") for k, v in raw.items()}

    def dump(self, value: dict) -> dict:
        return {k: self.value.dump(v) for k, v in value.items()}


def _getter(get: Any) -> Callable[[Any], Any]:
    if isinstance(get, str):
        return attrgetter(get)
    if isinstance(get, int):
        return itemgetter(get)
    return get


class _Record:
    """An object with fixed keys, one ``(key, codec, getter[, default])``
    field each; a field without a default is required.

    The getter reads the field back from the built value: a dotted
    attribute name, a tuple index or a callable. The parsed fields go to
    ``build`` in table order, after the record's path when ``with_path``
    is set. ``dump`` leaves out an optional field whose getter returns
    None and hands a required one to its codec.
    """

    def __init__(self, *fields: tuple, build: Callable = lambda *vals: vals, with_path: bool = False) -> None:
        self.fields = [(key, codec, _getter(get), default) for key, codec, get, *default in fields]
        self.keys = [f[0] for f in self.fields]
        self.required = [key for key, _, _, default in self.fields if not default]
        self.build, self.with_path = build, with_path

    def parse(self, raw: Any, path: str) -> Any:
        _obj(raw, path, self.required, self.keys)
        vals = [
            codec.parse(raw[key], f"{path}.{key}") if key in raw else default[0]
            for key, codec, _, default in self.fields
        ]
        with _wrap(path):
            return self.build(path, *vals) if self.with_path else self.build(*vals)

    def dump(self, value: Any) -> dict:
        out = {}
        for key, codec, get, default in self.fields:
            x = get(value)
            if x is not None or not default:
                out[key] = codec.dump(x)
        return out


class _Table:
    """Rows parsed into ``{key: value}``: the last field is the value, the
    others the key (a single key field is the key itself). A repeated key
    is an error; rows are written sorted by key."""

    def __init__(self, *fields: tuple, min_len: int = 0) -> None:
        self.row = _Record(*((key, codec, i) for i, (key, codec) in enumerate(fields)))
        self.flat, self.min_len = len(fields) > 2, min_len

    def parse(self, raw: Any, path: str) -> dict:
        table = {}
        for i, row in enumerate(_list(raw, path, self.min_len)):
            *key, value = self.row.parse(row, f"{path}[{i}]")
            key = tuple(key) if self.flat else key[0]
            if key in table:
                _fail(f"{path}[{i}]", f"duplicate entry for {key!r}")
            table[key] = value
        return table

    def dump(self, table: dict) -> list:
        return [self.row.dump((*k, v) if self.flat else (k, v)) for k, v in sorted(table.items())]


class _Ref:
    """Forward reference for a recursive shape; set ``target`` once it exists."""

    target: Any

    def parse(self, raw: Any, path: str) -> Any:
        return self.target.parse(raw, path)

    def dump(self, value: Any) -> Any:
        return self.target.dump(value)


def _nullable(codec: Any) -> _Leaf:
    """``codec``, or JSON null for None."""
    return _Leaf(lambda raw, path: None if raw is None else codec.parse(raw, path),
                 lambda value: None if value is None else codec.dump(value))


def _doc(*fields: tuple) -> _Record:
    """A record read into a dict, with one required ``(key, codec)`` field per key."""
    keys = [key for key, _ in fields]
    return _Record(*((key, codec, itemgetter(key)) for key, codec in fields), build=lambda *vals: dict(zip(keys, vals)))


# ------------------------------------------------------------ shared shapes
#
# Only shapes built from core types live here; a shape naming a domain
# class is built by the problem codec that uses it, so importing probio
# loads no solver module.


_STR, _INT, _BOOL = _Leaf(_str), _Leaf(_int), _Leaf(_bool)
_FRAC, _NUM = _Leaf(_frac, encode_number), _Leaf(_number, encode_number)
_IDS = _List(_STR, 1)
_VECTOR = _List(_FRAC, 1, EstimateVector)
_MATRIX = _List(_List(_NUM), 1)
_CELLS = _List(_List(_VECTOR), 1)
_FRAME = _List(
    _Record(
        ("id", _STR, "id"),
        ("direction", _choice(Direction), "direction", Direction.MAXIMIZE),
        ("weight", _FRAC, "weight", Fraction(1)),
        build=Criterion,
    ),
    1,
    CriteriaFrame,
    attrgetter("criteria"),
)


def _scale(best: Best) -> _Record:
    return _Record(("lo", _INT, "lo"), ("hi", _INT, "hi"), build=lambda lo, hi: OrdinalScale(lo, hi, best))


def _items(value_key: str) -> _List:
    from .select import Item

    return _List(
        _Record(("id", _STR, "id"), (value_key, _VECTOR, "value"), ("cost", _FRAC, "cost"), build=Item), 1
    )


# --------------------------------------------------------------- per problem


@frozen
class RankProblem:
    instance: RankingInstance
    p: Fraction
    q: Fraction


@frozen
class KnapsackProblem:
    instance: KnapsackInstance


@frozen
class MckpProblem:
    instance: MckpInstance


@frozen
class ClusterProblem:
    matrix: DissimilarityMatrix
    linkage: Linkage
    k: int | None


@frozen
class AssignProblem:
    instance: AssignmentInstance


@frozen
class TspProblem:
    instance: TspInstance
    start: str | None


@frozen
class MorphProblem:
    system: MorphSystem


@frozen
class TrajectoryProblem:
    spec: TrajectorySpec
    all_pairs: bool


@frozen
class IntegrateProblem:
    tree: IntegrationNode


@frozen
class PipelineProblem:
    spec: ThreeSetSpec
    linkage: Linkage


@frozen
class ImproveProblem:
    spec: ImprovementSpec


@frozen
class ProblemFile:
    spec_version: int
    problem_type: str
    payload: Any


# ------------------------------------------------------ payload codecs
#
# One function per problem type builds its payload codec and imports only
# the domain modules that type needs; fields follow the constructor they
# feed, and cross-field checks with their own path are the record's build.


def _rank() -> _Record:
    from .rank import DEFAULT_CONCORDANCE, DEFAULT_DISCORDANCE, RankingInstance

    return _Record(
        ("criteria", _FRAME, "instance.frame"),
        ("alternatives", _List(_Record(("id", _STR, 0), ("estimates", _VECTOR, 1)), 1), "instance.alternatives"),
        ("p", _FRAC, "p", DEFAULT_CONCORDANCE),
        ("q", _FRAC, "q", DEFAULT_DISCORDANCE),
        build=lambda frame, alts, p, q: RankProblem(RankingInstance(frame, alts), p, q),
    )


def _knapsack() -> _Record:
    from .select import KnapsackInstance

    return _Record(
        ("criteria", _FRAME, "instance.frame"),
        ("items", _items("value"), "instance.items"),
        ("budget", _FRAC, "instance.budget"),
        build=lambda *args: KnapsackProblem(KnapsackInstance(*args)),
    )


def _mckp() -> _Record:
    from .select import Group, GroupRule, MckpInstance

    group = _Record(("id", _STR, "id"), ("items", _items("value"), "items"), build=Group)
    return _Record(
        ("criteria", _FRAME, "instance.frame"),
        ("groups", _List(group, 1), "instance.groups"),
        ("budget", _FRAC, "instance.budget"),
        ("group_rule", _choice(GroupRule), "instance.group_rule", GroupRule.AT_MOST_ONE),
        build=lambda *args: MckpProblem(MckpInstance(*args)),
    )


def _cluster() -> _Record:
    from .cluster import DissimilarityMatrix, Linkage

    def build(path: str, ids: tuple, matrix: tuple, linkage: Linkage, k: int | None) -> ClusterProblem:
        with _wrap(f"{path}.matrix"):
            m = DissimilarityMatrix(ids, matrix)
        if k is not None and not 1 <= k <= len(ids):
            _fail(f"{path}.k", f"k={k} outside 1..{len(ids)}")
        return ClusterProblem(m, linkage, k)

    return _Record(
        ("ids", _IDS, "matrix.ids"),
        ("matrix", _MATRIX, "matrix.d"),
        ("linkage", _choice(Linkage), "linkage", Linkage.SINGLE),
        ("k", _INT, "k", None),
        build=build,
        with_path=True,
    )


def _assign() -> _Record:
    from .assign import AssignmentInstance

    return _Record(
        ("agents", _IDS, "instance.agents"),
        ("positions", _IDS, "instance.positions"),
        ("matrix", _CELLS, "instance.cells"),
        ("criteria", _FRAME, "instance.frame"),
        ("capacity", _Map(_INT), "instance.capacity", None),
        build=lambda *args: AssignProblem(AssignmentInstance(*args)),
    )


def _tsp() -> _Record:
    from .route import TspInstance

    def build(path: str, ids: tuple, matrix: tuple, start: str | None) -> TspProblem:
        with _wrap(f"{path}.matrix"):
            inst = TspInstance(ids, matrix)
        if start is not None and start not in ids:
            _fail(f"{path}.start", f"unknown city {start!r}")
        return TspProblem(inst, start)

    return _Record(
        ("ids", _IDS, "instance.ids"),
        ("matrix", _MATRIX, "instance.dist"),
        ("start", _STR, "start", None),
        build=build,
        with_path=True,
    )


def _morph() -> _Record:
    from .morph import DEFAULT_COMPAT_SCALE, DEFAULT_PRIORITY_SCALE, DesignAlternative, MorphNode, MorphSystem

    alternative = _Record(
        ("id", _STR, "id"),
        ("priority", _INT, "priority"),
        ("estimates", _VECTOR, "estimates", None),
        build=DesignAlternative,
    )
    node = _Ref()
    node.target = _Record(
        ("id", _STR, "id"),
        ("children", _List(node, 1), lambda n: n.children or None, ()),
        ("alternatives", _List(alternative, 1), lambda n: n.alternatives or None, ()),
        build=MorphNode,
    )
    return _Record(
        ("tree", node, "system.root"),
        ("compat", _Table(("node", _STR), ("left", _STR), ("right", _STR), ("value", _INT)), "system.compat"),
        ("compat_scale", _scale(Best.HIGH), "system.compat_scale", DEFAULT_COMPAT_SCALE),
        ("priority_scale", _scale(Best.LOW), "system.priority_scale", DEFAULT_PRIORITY_SCALE),
        build=lambda *args: MorphProblem(MorphSystem(*args)),
    )


def _trajectory() -> _Record:
    from .frameworks import Stage, TrajectorySpec

    stage = _Record(
        ("time", _FRAC, "time"),
        ("decisions", _List(_Record(("id", _STR, 0), ("priority", _INT, 1)), 1), "decisions"),
        build=Stage,
    )
    return _Record(
        ("stages", _List(stage, 1), "spec.stages"),
        ("compat", _Table(("from", _STR), ("to", _STR), ("value", _INT)), "spec.compat"),
        ("all_pairs", _BOOL, "all_pairs", False),
        build=lambda stages, compat, all_pairs: TrajectoryProblem(TrajectorySpec(stages, compat), all_pairs),
    )


def _integrate() -> _Record:
    from .frameworks import IntegrationNode, check_tables_total

    def build(path: str, tree: IntegrationNode) -> IntegrateProblem:
        seen: set[str] = set()

        def check_unique(node: IntegrationNode) -> None:
            if node.id in seen:
                _fail(f"{path}.tree", f"duplicate node id {node.id!r}")
            seen.add(node.id)
            for c in node.children:
                check_unique(c)

        check_unique(tree)
        with _wrap(f"{path}.tree"):
            check_tables_total(tree)
        return IntegrateProblem(tree)

    node = _Ref()
    node.target = _Record(
        ("id", _STR, "id"),
        ("scale", _scale(Best.HIGH), "scale"),
        ("children", _List(node, 1), lambda n: n.children or None, ()),
        ("table", _Table(("inputs", _List(_INT)), ("output", _INT), min_len=1), "table", None),
        ("estimate", _INT, "estimate", None),
        build=IntegrationNode,
    )
    return _Record(("tree", node, "tree"), build=build, with_path=True)


def _pipeline() -> _Record:
    from .cluster import DissimilarityMatrix, Linkage
    from .frameworks import PairActions, ThreeSetSpec

    def pair_actions(path: str, pair: tuple, items: tuple) -> PairActions:
        if len(pair) != 2:
            _fail(f"{path}.pair", "expected [element1, element2]")
        return PairActions(*pair, items)

    element_set = _Record(("ids", _IDS, "ids"), ("matrix", _MATRIX, "d"), build=DissimilarityMatrix)
    actions = _Record(
        ("pair", _List(_STR), lambda a: (a.element1, a.element2)),
        ("items", _items("value"), "items"),
        build=pair_actions,
        with_path=True,
    )
    return _Record(
        ("set1", element_set, "spec.set1"),
        ("set2", element_set, "spec.set2"),
        ("k1", _INT, "spec.k1"),
        ("k2", _INT, "spec.k2"),
        ("criteria", _FRAME, "spec.frame"),
        ("correspondence", _CELLS, "spec.correspondence"),
        ("action_criteria", _FRAME, "spec.action_frame"),
        ("actions", _List(actions), "spec.actions"),
        ("budget", _FRAC, "spec.budget"),
        ("linkage", _choice(Linkage), "linkage", Linkage.SINGLE),
        build=lambda *args: PipelineProblem(ThreeSetSpec(*args[:-1]), args[-1]),
    )


def _improve() -> _Record:
    from .frameworks import ImprovementPart, ImprovementSpec

    part = _Record(("id", _STR, "id"), ("actions", _items("effect"), "actions"), build=ImprovementPart)
    return _Record(
        ("criteria", _FRAME, "spec.frame"),
        ("parts", _List(part, 1), "spec.parts"),
        ("budget", _FRAC, "spec.budget"),
        build=lambda *args: ImproveProblem(ImprovementSpec(*args)),
    )


#: problem_type -> builder of its payload codec
_PROBLEMS: dict[str, Callable[[], _Record]] = {
    "rank": _rank,
    "knapsack": _knapsack,
    "mckp": _mckp,
    "cluster": _cluster,
    "assign": _assign,
    "tsp": _tsp,
    "morph": _morph,
    "trajectory": _trajectory,
    "integrate": _integrate,
    "pipeline": _pipeline,
    "improve": _improve,
}

@cache
def _payload(problem_type: str) -> _Record:
    """The payload codec of ``problem_type``, built on its first use."""
    return _PROBLEMS[problem_type]()


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _envelope(text: str, kind: str, kinds: Container[str], *keys: str) -> dict:
    """The top-level object of a file, after the checks every file shares:
    JSON with exactly the keys spec_version, ``kind`` and ``keys``, the
    current spec_version, and a ``kind`` value among ``kinds``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"malformed JSON: {exc}") from exc
    doc = _obj(raw, "$", ("spec_version", kind, *keys))
    version = _int(doc["spec_version"], "$.spec_version")
    if version != SPEC_VERSION:
        _fail("$.spec_version", f"unsupported version {version}, expected {SPEC_VERSION}")
    if _str(doc[kind], f"$.{kind}") not in kinds:
        _fail(f"$.{kind}", f"unknown {kind.replace('_', ' ')} {doc[kind]!r}")
    return doc


def parse_problem(text: str) -> ProblemFile:
    """Parse and fully validate a problem file.

    Every structural invariant of the target instance is checked here;
    error messages carry the JSON path of the offending value. Unknown
    keys are rejected.
    """
    doc = _envelope(text, "problem_type", _PROBLEMS, "payload")
    ptype = doc["problem_type"]
    return ProblemFile(SPEC_VERSION, ptype, _payload(ptype).parse(doc["payload"], "$.payload"))


def write_problem(pf: ProblemFile) -> str:
    """Canonical text for a problem file (sorted keys, exact numbers)."""
    return _canonical(
        {
            "spec_version": pf.spec_version,
            "problem_type": pf.problem_type,
            "payload": _payload(pf.problem_type).dump(pf.payload),
        }
    )


# -------------------------------------------------------------------- results
#
# A report's solution stays a plain dict tree, indexed like its JSON: each
# problem type's shape is one dict record in _RESULTS, and the same record
# writes the report and reads it back strictly.


@frozen
class ResultFile:
    spec_version: int
    problem_type: str
    method: str
    solution: dict
    diagnostics: dict


def _array(item: Any) -> _List:
    """A report array, read into a list."""
    return _List(item, 0, list)


_ID_LIST = _array(_STR)
_PAIRS = _array(_ID_LIST)  # [id, id] entries
_FRACS = _array(_FRAC)
_QUALITY = _doc(("w", _INT), ("counts", _array(_INT)))
_SELECTED = (("chosen", _ID_LIST), ("total_cost", _FRAC), ("objective", _FRAC), ("objective_vector", _FRACS))

#: problem_type -> codec of its report's solution
_RESULTS: dict[str, _Record] = {
    "rank": _doc(("priorities", _Map(_INT)), ("scores", _Map(_NUM))),
    "knapsack": _doc(*_SELECTED),
    "mckp": _doc(*_SELECTED),
    "cluster": _doc(
        ("merges", _array(_doc(("left", _ID_LIST), ("right", _ID_LIST), ("height", _NUM)))),
        ("partition", _nullable(_array(_ID_LIST))),
    ),
    "assign": _doc(("solutions", _array(_doc(("pairs", _PAIRS), ("objective", _FRAC), ("objective_vector", _FRACS))))),
    "tsp": _doc(("order", _ID_LIST), ("length", _NUM)),
    "morph": _doc(
        ("root", _STR),
        ("nodes", _array(_doc(("id", _STR), ("composites", _array(_doc(
            ("id", _STR), ("selection", _PAIRS), ("leaves", _PAIRS), ("quality", _QUALITY), ("priority", _INT),
        )))))),
    ),
    "trajectory": _doc(("trajectories", _array(_doc(("path", _ID_LIST), ("quality", _QUALITY))))),
    "integrate": _doc(("root_estimate", _INT), ("trace", _Map(_INT))),
    "pipeline": _doc(
        ("clusters1", _array(_ID_LIST)),
        ("clusters2", _array(_ID_LIST)),
        ("assignment", _array(_array(_INT))),
        ("actions", _array(_doc(("element1", _STR), ("element2", _STR), ("action", _STR), ("cost", _FRAC)))),
        ("total_cost", _FRAC),
        ("objective", _FRAC),
        ("mckp_method", _STR),
    ),
    "improve": _doc(*_SELECTED, ("by_part", _Map(_nullable(_STR)))),
}
_DIAGNOSTICS = _Map(_STR)


def write_result(result: ResultFile, fmt: ResultFormat = ResultFormat.STRUCTURED) -> str:
    """Structured: canonical machine format. Text: human-readable report."""
    if fmt is ResultFormat.TEXT:
        return _render_text(result)
    return _canonical(
        {
            "spec_version": result.spec_version,
            "problem_type": result.problem_type,
            "method": result.method,
            "solution": _RESULTS[result.problem_type].dump(result.solution),
            "diagnostics": _DIAGNOSTICS.dump({k: v for k, v in result.diagnostics.items() if v is not None}),
        }
    )


def parse_result(text: str) -> ResultFile:
    """Parse a structured report strictly: an unknown key, a wrong type or
    another spec_version fails with its JSON path."""
    doc = _envelope(text, "problem_type", _RESULTS, "method", "solution", "diagnostics")
    ptype = doc["problem_type"]
    return ResultFile(
        spec_version=SPEC_VERSION,
        problem_type=ptype,
        method=_str(doc["method"], "$.method"),
        solution=_RESULTS[ptype].parse(doc["solution"], "$.solution"),
        diagnostics=_DIAGNOSTICS.parse(doc["diagnostics"], "$.diagnostics"),
    )


def _quality_line(q: dict) -> str:
    counts = ", ".join(str(c) for c in q["counts"])
    return f"N(S) = ({q['w']}; {counts})"


def _render_text(result: ResultFile) -> str:
    lines = [f"problem: {result.problem_type}", f"method: {result.method}"]
    sol = result.solution
    t = result.problem_type
    if t == "rank":
        by_alt = sorted(sol["priorities"].items(), key=lambda kv: (kv[1], kv[0]))
        for aid, prio in by_alt:
            lines.append(
                f"priority {prio}: {aid} (score {render_number(sol['scores'][aid])})"
            )
    elif t in ("knapsack", "mckp", "improve"):
        chosen = sol["chosen"]
        lines.append("chosen: " + (", ".join(chosen) if chosen else "(none)"))
        if "by_part" in sol:
            for part, action in sorted(sol["by_part"].items()):
                lines.append(f"  {part}: {action if action else '(no action)'}")
        lines.append(f"total cost: {render_number(sol['total_cost'])}")
        lines.append(f"objective: {render_number(sol['objective'])}")
        lines.append(
            "objective vector: ("
            + ", ".join(render_number(v) for v in sol["objective_vector"])
            + ")"
        )
    elif t == "cluster":
        for merge in sol["merges"]:
            lines.append(
                "merge {" + ", ".join(merge["left"]) + "} + {"
                + ", ".join(merge["right"]) + "} at "
                + render_number(merge["height"])
            )
        if sol.get("partition") is not None:
            for i, block in enumerate(sol["partition"], 1):
                lines.append(f"block {i}: " + ", ".join(block))
    elif t == "assign":
        for entry in sol["solutions"]:
            pairs = ", ".join(f"{a} -> {p}" for a, p in entry["pairs"])
            lines.append(f"pairs: {pairs if pairs else '(none)'}")
            lines.append(
                "  objective vector: ("
                + ", ".join(render_number(v) for v in entry["objective_vector"])
                + f"), objective {render_number(entry['objective'])}"
            )
    elif t == "tsp":
        lines.append("tour: " + " -> ".join(sol["order"]))
        lines.append(f"length: {render_number(sol['length'])}")
    elif t == "morph":
        for node in sol["nodes"]:
            lines.append(f"node {node['id']}:")
            for comp in node["composites"]:
                sel = ", ".join(f"{part}={da}" for part, da in comp["selection"])
                lines.append(
                    f"  {comp['id']}: {sel}; {_quality_line(comp['quality'])}; "
                    f"priority {comp['priority']}"
                )
    elif t == "trajectory":
        for entry in sol["trajectories"]:
            lines.append(
                "trajectory " + " -> ".join(entry["path"]) + "; "
                + _quality_line(entry["quality"])
            )
    elif t == "integrate":
        lines.append(f"root estimate: {sol['root_estimate']}")
        for nid, est in sorted(sol["trace"].items()):
            lines.append(f"  {nid}: {est}")
    elif t == "pipeline":
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
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- fixtures


_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture_path(name: str) -> str:
    """Absolute path of a shipped fixture file."""
    return os.path.join(_FIXTURES, name)


def load_fixture(name: str) -> str:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


@frozen
class QualityCase:
    a: QualityVector
    b: QualityVector
    relation: str  # one of _RELATIONS


_RELATIONS = ("a_dominates_b", "b_dominates_a", "incomparable")


def load_quality_cases(text: str) -> list[QualityCase]:
    """Auxiliary fixture format: expected dominance relations between
    quality-vector pairs."""
    from .morph import QualityVector

    quality = _Record(("w", _INT, "w"), ("counts", _List(_INT, 1), "counts"), build=QualityVector)
    relation = _Leaf(lambda raw, path: raw if raw in _RELATIONS else _fail(path, f"unknown relation {raw!r}"))
    case = _Record(("a", quality, "a"), ("b", quality, "b"), ("relation", relation, "relation"), build=QualityCase)
    doc = _envelope(text, "kind", ("quality_cases",), "cases")
    return _List(case, 1, list).parse(doc["cases"], "$.cases")
