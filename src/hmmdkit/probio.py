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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources
from typing import Any, Sequence

from .assign import AssignmentInstance
from .cluster import DissimilarityMatrix, Linkage
from .core import (
    Best,
    Criterion,
    CriteriaFrame,
    Direction,
    EstimateVector,
    OrdinalScale,
    ValidationError,
    as_frac,
)
from .frameworks import (
    ImprovementPart,
    ImprovementSpec,
    IntegrationNode,
    PairActions,
    Stage,
    ThreeSetSpec,
    TrajectorySpec,
    check_tables_total,
)
from .morph import (
    DEFAULT_COMPAT_SCALE,
    DEFAULT_PRIORITY_SCALE,
    DesignAlternative,
    MorphNode,
    MorphSystem,
    QualityVector,
)
from .rank import DEFAULT_CONCORDANCE, DEFAULT_DISCORDANCE, RankingInstance
from .route import TspInstance
from .select import Group, GroupRule, Item, KnapsackInstance, MckpInstance

SPEC_VERSION = 1

PROBLEM_TYPES = (
    "rank",
    "knapsack",
    "mckp",
    "cluster",
    "assign",
    "tsp",
    "morph",
    "trajectory",
    "integrate",
    "pipeline",
    "improve",
)


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


def _obj(raw: Any, path: str, required: Sequence[str], optional: Sequence[str], strict: bool) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    missing = sorted(set(required) - set(raw))
    if missing:
        _fail(path, f"missing keys {missing}")
    if strict:
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


def _wrap(path: str):
    """Re-raise domain validation errors with position information."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is not None and issubclass(exc_type, ValidationError) and not issubclass(exc_type, ParseError):
                raise ParseError(path, str(exc)) from exc
            return False

    return _Ctx()


# ------------------------------------------------------------ shared pieces


def _parse_frame(raw: Any, path: str, strict: bool) -> CriteriaFrame:
    items = _list(raw, path, min_len=1)
    crits = []
    for i, c in enumerate(items):
        p = f"{path}[{i}]"
        d = _obj(c, p, required=("id",), optional=("direction", "weight"), strict=strict)
        direction_raw = d.get("direction", "max")
        if direction_raw not in ("max", "min"):
            _fail(f"{p}.direction", f"expected 'max' or 'min', got {direction_raw!r}")
        direction = Direction.MAXIMIZE if direction_raw == "max" else Direction.MINIMIZE
        weight = _frac(d.get("weight", 1), f"{p}.weight")
        with _wrap(p):
            crits.append(Criterion(_str(d["id"], f"{p}.id"), direction, weight))
    with _wrap(path):
        return CriteriaFrame(tuple(crits))


def _frame_payload(frame: CriteriaFrame) -> list[dict]:
    return [
        {
            "id": c.id,
            "direction": "max" if c.direction is Direction.MAXIMIZE else "min",
            "weight": encode_number(c.weight),
        }
        for c in frame.criteria
    ]


def _parse_vector(raw: Any, path: str) -> EstimateVector:
    vals = _list(raw, path, min_len=1)
    return EstimateVector([_frac(v, f"{path}[{i}]") for i, v in enumerate(vals)])


def _vector_payload(v: EstimateVector) -> list:
    return [encode_number(x) for x in v.values]


def _parse_matrix(raw: Any, path: str) -> tuple[tuple[Any, ...], ...]:
    rows = _list(raw, path, min_len=1)
    return tuple(
        tuple(
            _number(v, f"{path}[{i}][{j}]")
            for j, v in enumerate(_list(row, f"{path}[{i}]"))
        )
        for i, row in enumerate(rows)
    )


def _matrix_payload(m) -> list[list]:
    return [[encode_number(v) for v in row] for row in m]


def _parse_scale(raw: Any, path: str, best: Best, strict: bool) -> OrdinalScale:
    d = _obj(raw, path, required=("lo", "hi"), optional=(), strict=strict)
    with _wrap(path):
        return OrdinalScale(_int(d["lo"], f"{path}.lo"), _int(d["hi"], f"{path}.hi"), best)


def _parse_items(raw: Any, path: str, strict: bool, value_key: str = "value") -> tuple[Item, ...]:
    entries = _list(raw, path, min_len=1)
    items = []
    for i, e in enumerate(entries):
        p = f"{path}[{i}]"
        d = _obj(e, p, required=("id", value_key, "cost"), optional=(), strict=strict)
        with _wrap(p):
            items.append(
                Item(
                    _str(d["id"], f"{p}.id"),
                    _parse_vector(d[value_key], f"{p}.{value_key}"),
                    _frac(d["cost"], f"{p}.cost"),
                )
            )
    return tuple(items)


def _items_payload(items: Sequence[Item], value_key: str = "value") -> list[dict]:
    return [
        {"id": it.id, value_key: _vector_payload(it.value), "cost": encode_number(it.cost)}
        for it in items
    ]


# --------------------------------------------------------------- per problem


@dataclass(frozen=True)
class RankProblem:
    instance: RankingInstance
    p: Fraction
    q: Fraction


@dataclass(frozen=True)
class KnapsackProblem:
    instance: KnapsackInstance


@dataclass(frozen=True)
class MckpProblem:
    instance: MckpInstance


@dataclass(frozen=True)
class ClusterProblem:
    matrix: DissimilarityMatrix
    linkage: Linkage
    k: int | None


@dataclass(frozen=True)
class AssignProblem:
    instance: AssignmentInstance


@dataclass(frozen=True)
class TspProblem:
    instance: TspInstance
    start: str | None


@dataclass(frozen=True)
class MorphProblem:
    system: MorphSystem


@dataclass(frozen=True)
class TrajectoryProblem:
    spec: TrajectorySpec
    all_pairs: bool


@dataclass(frozen=True)
class IntegrateProblem:
    tree: IntegrationNode


@dataclass(frozen=True)
class PipelineProblem:
    spec: ThreeSetSpec
    linkage: Linkage


@dataclass(frozen=True)
class ImproveProblem:
    spec: ImprovementSpec


@dataclass(frozen=True)
class ProblemFile:
    spec_version: int
    problem_type: str
    payload: Any


def _parse_rank(raw: dict, path: str, strict: bool) -> RankProblem:
    d = _obj(raw, path, required=("criteria", "alternatives"), optional=("p", "q"), strict=strict)
    frame = _parse_frame(d["criteria"], f"{path}.criteria", strict)
    alts = []
    for i, a in enumerate(_list(d["alternatives"], f"{path}.alternatives", min_len=1)):
        p = f"{path}.alternatives[{i}]"
        ad = _obj(a, p, required=("id", "estimates"), optional=(), strict=strict)
        alts.append(
            (_str(ad["id"], f"{p}.id"), _parse_vector(ad["estimates"], f"{p}.estimates"))
        )
    with _wrap(path):
        inst = RankingInstance(frame, tuple(alts))
    p_thr = _frac(d.get("p", DEFAULT_CONCORDANCE), f"{path}.p")
    q_thr = _frac(d.get("q", DEFAULT_DISCORDANCE), f"{path}.q")
    return RankProblem(inst, p_thr, q_thr)


def _rank_payload(pb: RankProblem) -> dict:
    return {
        "criteria": _frame_payload(pb.instance.frame),
        "alternatives": [
            {"id": a, "estimates": _vector_payload(v)}
            for a, v in pb.instance.alternatives
        ],
        "p": encode_number(pb.p),
        "q": encode_number(pb.q),
    }


def _parse_knapsack(raw: dict, path: str, strict: bool) -> KnapsackProblem:
    d = _obj(raw, path, required=("criteria", "items", "budget"), optional=(), strict=strict)
    frame = _parse_frame(d["criteria"], f"{path}.criteria", strict)
    items = _parse_items(d["items"], f"{path}.items", strict)
    with _wrap(path):
        return KnapsackProblem(
            KnapsackInstance(frame, items, _frac(d["budget"], f"{path}.budget"))
        )


def _knapsack_payload(pb: KnapsackProblem) -> dict:
    return {
        "criteria": _frame_payload(pb.instance.frame),
        "items": _items_payload(pb.instance.items),
        "budget": encode_number(pb.instance.budget),
    }


def _parse_mckp(raw: dict, path: str, strict: bool) -> MckpProblem:
    d = _obj(
        raw, path, required=("criteria", "groups", "budget"), optional=("group_rule",), strict=strict
    )
    frame = _parse_frame(d["criteria"], f"{path}.criteria", strict)
    groups = []
    for i, g in enumerate(_list(d["groups"], f"{path}.groups", min_len=1)):
        p = f"{path}.groups[{i}]"
        gd = _obj(g, p, required=("id", "items"), optional=(), strict=strict)
        with _wrap(p):
            groups.append(
                Group(_str(gd["id"], f"{p}.id"), _parse_items(gd["items"], f"{p}.items", strict))
            )
    rule_raw = d.get("group_rule", "at_most_one")
    if rule_raw not in ("at_most_one", "exactly_one"):
        _fail(f"{path}.group_rule", f"expected 'at_most_one' or 'exactly_one', got {rule_raw!r}")
    with _wrap(path):
        return MckpProblem(
            MckpInstance(
                frame,
                tuple(groups),
                _frac(d["budget"], f"{path}.budget"),
                GroupRule(rule_raw),
            )
        )


def _mckp_payload(pb: MckpProblem) -> dict:
    return {
        "criteria": _frame_payload(pb.instance.frame),
        "groups": [
            {"id": g.id, "items": _items_payload(g.items)} for g in pb.instance.groups
        ],
        "budget": encode_number(pb.instance.budget),
        "group_rule": pb.instance.group_rule.value,
    }


def _parse_ids(raw: Any, path: str) -> tuple[str, ...]:
    return tuple(_str(x, f"{path}[{i}]") for i, x in enumerate(_list(raw, path, min_len=1)))


def _parse_linkage(raw: Any, path: str) -> Linkage:
    if raw not in ("single", "complete", "average"):
        _fail(path, f"expected 'single', 'complete' or 'average', got {raw!r}")
    return Linkage(raw)


def _parse_cluster(raw: dict, path: str, strict: bool) -> ClusterProblem:
    d = _obj(raw, path, required=("ids", "matrix"), optional=("linkage", "k"), strict=strict)
    ids = _parse_ids(d["ids"], f"{path}.ids")
    matrix = _parse_matrix(d["matrix"], f"{path}.matrix")
    with _wrap(f"{path}.matrix"):
        m = DissimilarityMatrix(ids, matrix)
    linkage = _parse_linkage(d.get("linkage", "single"), f"{path}.linkage")
    k = None
    if "k" in d:
        k = _int(d["k"], f"{path}.k")
        if not 1 <= k <= len(ids):
            _fail(f"{path}.k", f"k={k} outside 1..{len(ids)}")
    return ClusterProblem(m, linkage, k)


def _cluster_payload(pb: ClusterProblem) -> dict:
    out = {
        "ids": list(pb.matrix.ids),
        "matrix": _matrix_payload(pb.matrix.d),
        "linkage": pb.linkage.value,
    }
    if pb.k is not None:
        out["k"] = pb.k
    return out


def _parse_assign(raw: dict, path: str, strict: bool) -> AssignProblem:
    d = _obj(
        raw,
        path,
        required=("criteria", "agents", "positions", "matrix"),
        optional=("capacity",),
        strict=strict,
    )
    frame = _parse_frame(d["criteria"], f"{path}.criteria", strict)
    agents = _parse_ids(d["agents"], f"{path}.agents")
    positions = _parse_ids(d["positions"], f"{path}.positions")
    rows = _list(d["matrix"], f"{path}.matrix", min_len=1)
    cells = tuple(
        tuple(
            _parse_vector(cell, f"{path}.matrix[{i}][{j}]")
            for j, cell in enumerate(_list(row, f"{path}.matrix[{i}]"))
        )
        for i, row in enumerate(rows)
    )
    capacity = None
    if "capacity" in d:
        cd = d["capacity"]
        if not isinstance(cd, dict):
            _fail(f"{path}.capacity", "expected an object")
        capacity = {
            k: _int(v, f"{path}.capacity.{k}") for k, v in cd.items()
        }
    with _wrap(path):
        return AssignProblem(AssignmentInstance(agents, positions, cells, frame, capacity))


def _assign_payload(pb: AssignProblem) -> dict:
    inst = pb.instance
    return {
        "criteria": _frame_payload(inst.frame),
        "agents": list(inst.agents),
        "positions": list(inst.positions),
        "matrix": [[_vector_payload(c) for c in row] for row in inst.cells],
        "capacity": {p: inst.capacity[p] for p in inst.positions},
    }


def _parse_tsp(raw: dict, path: str, strict: bool) -> TspProblem:
    d = _obj(raw, path, required=("ids", "matrix"), optional=("start",), strict=strict)
    ids = _parse_ids(d["ids"], f"{path}.ids")
    matrix = _parse_matrix(d["matrix"], f"{path}.matrix")
    with _wrap(f"{path}.matrix"):
        inst = TspInstance(ids, matrix)
    start = _str(d["start"], f"{path}.start") if "start" in d else None
    if start is not None and start not in ids:
        _fail(f"{path}.start", f"unknown city {start!r}")
    return TspProblem(inst, start)


def _tsp_payload(pb: TspProblem) -> dict:
    out = {"ids": list(pb.instance.ids), "matrix": _matrix_payload(pb.instance.dist)}
    if pb.start is not None:
        out["start"] = pb.start
    return out


def _parse_morph_node(raw: Any, path: str, strict: bool) -> MorphNode:
    d = _obj(raw, path, required=("id",), optional=("children", "alternatives"), strict=strict)
    nid = _str(d["id"], f"{path}.id")
    if "children" in d and "alternatives" in d:
        _fail(path, f"node {nid!r} cannot carry both children and alternatives")
    if "children" in d:
        children = tuple(
            _parse_morph_node(c, f"{path}.children[{i}]", strict)
            for i, c in enumerate(_list(d["children"], f"{path}.children", min_len=1))
        )
        with _wrap(path):
            return MorphNode(nid, children=children)
    alts = []
    for i, a in enumerate(_list(d.get("alternatives"), f"{path}.alternatives", min_len=1)):
        p = f"{path}.alternatives[{i}]"
        ad = _obj(a, p, required=("id", "priority"), optional=("estimates",), strict=strict)
        estimates = (
            _parse_vector(ad["estimates"], f"{p}.estimates") if "estimates" in ad else None
        )
        with _wrap(p):
            alts.append(
                DesignAlternative(
                    _str(ad["id"], f"{p}.id"), _int(ad["priority"], f"{p}.priority"), estimates
                )
            )
    with _wrap(path):
        return MorphNode(nid, alternatives=tuple(alts))


def _morph_node_payload(node: MorphNode) -> dict:
    if node.is_leaf:
        alts = []
        for da in node.alternatives:
            a = {"id": da.id, "priority": da.priority}
            if da.estimates is not None:
                a["estimates"] = _vector_payload(da.estimates)
            alts.append(a)
        return {"id": node.id, "alternatives": alts}
    return {
        "id": node.id,
        "children": [_morph_node_payload(c) for c in node.children],
    }


def _parse_morph(raw: dict, path: str, strict: bool) -> MorphProblem:
    d = _obj(
        raw,
        path,
        required=("tree", "compat"),
        optional=("priority_scale", "compat_scale"),
        strict=strict,
    )
    tree = _parse_morph_node(d["tree"], f"{path}.tree", strict)
    compat = {}
    for i, t in enumerate(_list(d["compat"], f"{path}.compat")):
        p = f"{path}.compat[{i}]"
        td = _obj(t, p, required=("node", "left", "right", "value"), optional=(), strict=strict)
        key = (
            _str(td["node"], f"{p}.node"),
            _str(td["left"], f"{p}.left"),
            _str(td["right"], f"{p}.right"),
        )
        if key in compat or (key[0], key[2], key[1]) in compat:
            _fail(p, f"duplicate compatibility entry for {key[1]!r}-{key[2]!r} at {key[0]!r}")
        compat[key] = _int(td["value"], f"{p}.value")
    prio_scale = (
        _parse_scale(d["priority_scale"], f"{path}.priority_scale", Best.LOW, strict)
        if "priority_scale" in d
        else DEFAULT_PRIORITY_SCALE
    )
    compat_scale = (
        _parse_scale(d["compat_scale"], f"{path}.compat_scale", Best.HIGH, strict)
        if "compat_scale" in d
        else DEFAULT_COMPAT_SCALE
    )
    with _wrap(path):
        return MorphProblem(MorphSystem(tree, compat, compat_scale, prio_scale))


def _morph_payload(pb: MorphProblem) -> dict:
    system = pb.system
    return {
        "tree": _morph_node_payload(system.root),
        "compat": [
            {"node": n, "left": a, "right": b, "value": v}
            for (n, a, b), v in sorted(system.compat.items())
        ],
        "priority_scale": {"lo": system.priority_scale.lo, "hi": system.priority_scale.hi},
        "compat_scale": {"lo": system.compat_scale.lo, "hi": system.compat_scale.hi},
    }


def _parse_trajectory(raw: dict, path: str, strict: bool) -> TrajectoryProblem:
    d = _obj(raw, path, required=("stages", "compat"), optional=("all_pairs",), strict=strict)
    stages = []
    for i, s in enumerate(_list(d["stages"], f"{path}.stages", min_len=1)):
        p = f"{path}.stages[{i}]"
        sd = _obj(s, p, required=("time", "decisions"), optional=(), strict=strict)
        decisions = []
        for j, dec in enumerate(_list(sd["decisions"], f"{p}.decisions", min_len=1)):
            pp = f"{p}.decisions[{j}]"
            dd = _obj(dec, pp, required=("id", "priority"), optional=(), strict=strict)
            decisions.append(
                (_str(dd["id"], f"{pp}.id"), _int(dd["priority"], f"{pp}.priority"))
            )
        with _wrap(p):
            stages.append(Stage(_frac(sd["time"], f"{p}.time"), tuple(decisions)))
    compat = {}
    for i, t in enumerate(_list(d["compat"], f"{path}.compat")):
        p = f"{path}.compat[{i}]"
        td = _obj(t, p, required=("from", "to", "value"), optional=(), strict=strict)
        key = (_str(td["from"], f"{p}.from"), _str(td["to"], f"{p}.to"))
        if key in compat:
            _fail(p, f"duplicate compatibility entry {key}")
        compat[key] = _int(td["value"], f"{p}.value")
    with _wrap(path):
        spec = TrajectorySpec(tuple(stages), compat)
    all_pairs = _bool(d.get("all_pairs", False), f"{path}.all_pairs")
    return TrajectoryProblem(spec, all_pairs)


def _trajectory_payload(pb: TrajectoryProblem) -> dict:
    return {
        "stages": [
            {
                "time": encode_number(s.time),
                "decisions": [{"id": d, "priority": p} for d, p in s.decisions],
            }
            for s in pb.spec.stages
        ],
        "compat": [
            {"from": a, "to": b, "value": v}
            for (a, b), v in sorted(pb.spec.compat.items())
        ],
        "all_pairs": pb.all_pairs,
    }


def _parse_integration_node(raw: Any, path: str, strict: bool) -> IntegrationNode:
    d = _obj(
        raw,
        path,
        required=("id", "scale"),
        optional=("children", "table", "estimate"),
        strict=strict,
    )
    nid = _str(d["id"], f"{path}.id")
    scale = _parse_scale(d["scale"], f"{path}.scale", Best.HIGH, strict)
    if "children" in d:
        children = tuple(
            _parse_integration_node(c, f"{path}.children[{i}]", strict)
            for i, c in enumerate(_list(d["children"], f"{path}.children", min_len=1))
        )
        table = {}
        for i, row in enumerate(_list(d.get("table", []), f"{path}.table", min_len=1)):
            p = f"{path}.table[{i}]"
            rd = _obj(row, p, required=("inputs", "output"), optional=(), strict=strict)
            key = tuple(
                _int(v, f"{p}.inputs[{j}]")
                for j, v in enumerate(_list(rd["inputs"], f"{p}.inputs"))
            )
            if key in table:
                _fail(p, f"duplicate table entry for inputs {list(key)}")
            table[key] = _int(rd["output"], f"{p}.output")
        with _wrap(path):
            return IntegrationNode(nid, scale, children=children, table=table)
    with _wrap(path):
        return IntegrationNode(nid, scale, estimate=_int(d.get("estimate"), f"{path}.estimate"))


def _parse_integrate(raw: dict, path: str, strict: bool) -> IntegrateProblem:
    d = _obj(raw, path, required=("tree",), optional=(), strict=strict)
    tree = _parse_integration_node(d["tree"], f"{path}.tree", strict)
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


def _integration_node_payload(node: IntegrationNode) -> dict:
    out = {"id": node.id, "scale": {"lo": node.scale.lo, "hi": node.scale.hi}}
    if node.children:
        out["children"] = [_integration_node_payload(c) for c in node.children]
        out["table"] = [
            {"inputs": list(k), "output": v} for k, v in sorted(node.table.items())
        ]
    else:
        out["estimate"] = node.estimate
    return out


def _parse_pipeline(raw: dict, path: str, strict: bool) -> PipelineProblem:
    d = _obj(
        raw,
        path,
        required=(
            "criteria",
            "set1",
            "set2",
            "k1",
            "k2",
            "correspondence",
            "action_criteria",
            "actions",
            "budget",
        ),
        optional=("linkage",),
        strict=strict,
    )
    frame = _parse_frame(d["criteria"], f"{path}.criteria", strict)
    action_frame = _parse_frame(d["action_criteria"], f"{path}.action_criteria", strict)

    def parse_set(key: str) -> DissimilarityMatrix:
        sd = _obj(d[key], f"{path}.{key}", required=("ids", "matrix"), optional=(), strict=strict)
        ids = _parse_ids(sd["ids"], f"{path}.{key}.ids")
        with _wrap(f"{path}.{key}"):
            return DissimilarityMatrix(ids, _parse_matrix(sd["matrix"], f"{path}.{key}.matrix"))

    set1, set2 = parse_set("set1"), parse_set("set2")
    corr_rows = _list(d["correspondence"], f"{path}.correspondence", min_len=1)
    correspondence = tuple(
        tuple(
            _parse_vector(cell, f"{path}.correspondence[{i}][{j}]")
            for j, cell in enumerate(_list(row, f"{path}.correspondence[{i}]"))
        )
        for i, row in enumerate(corr_rows)
    )
    actions = []
    for i, a in enumerate(_list(d["actions"], f"{path}.actions")):
        p = f"{path}.actions[{i}]"
        ad = _obj(a, p, required=("pair", "items"), optional=(), strict=strict)
        pair = _list(ad["pair"], f"{p}.pair")
        if len(pair) != 2:
            _fail(f"{p}.pair", "expected [element1, element2]")
        with _wrap(p):
            actions.append(
                PairActions(
                    _str(pair[0], f"{p}.pair[0]"),
                    _str(pair[1], f"{p}.pair[1]"),
                    _parse_items(ad["items"], f"{p}.items", strict),
                )
            )
    linkage = _parse_linkage(d.get("linkage", "single"), f"{path}.linkage")
    with _wrap(path):
        spec = ThreeSetSpec(
            set1=set1,
            set2=set2,
            k1=_int(d["k1"], f"{path}.k1"),
            k2=_int(d["k2"], f"{path}.k2"),
            frame=frame,
            correspondence=correspondence,
            action_frame=action_frame,
            actions=tuple(actions),
            budget=_frac(d["budget"], f"{path}.budget"),
        )
    return PipelineProblem(spec, linkage)


def _pipeline_payload(pb: PipelineProblem) -> dict:
    spec = pb.spec
    return {
        "criteria": _frame_payload(spec.frame),
        "set1": {"ids": list(spec.set1.ids), "matrix": _matrix_payload(spec.set1.d)},
        "set2": {"ids": list(spec.set2.ids), "matrix": _matrix_payload(spec.set2.d)},
        "k1": spec.k1,
        "k2": spec.k2,
        "correspondence": [
            [_vector_payload(c) for c in row] for row in spec.correspondence
        ],
        "action_criteria": _frame_payload(spec.action_frame),
        "actions": [
            {"pair": [pa.element1, pa.element2], "items": _items_payload(pa.items)}
            for pa in spec.actions
        ],
        "budget": encode_number(spec.budget),
        "linkage": pb.linkage.value,
    }


def _parse_improve(raw: dict, path: str, strict: bool) -> ImproveProblem:
    d = _obj(raw, path, required=("criteria", "parts", "budget"), optional=(), strict=strict)
    frame = _parse_frame(d["criteria"], f"{path}.criteria", strict)
    parts = []
    for i, pr in enumerate(_list(d["parts"], f"{path}.parts", min_len=1)):
        p = f"{path}.parts[{i}]"
        pd = _obj(pr, p, required=("id", "actions"), optional=(), strict=strict)
        with _wrap(p):
            parts.append(
                ImprovementPart(
                    _str(pd["id"], f"{p}.id"),
                    _parse_items(pd["actions"], f"{p}.actions", strict, value_key="effect"),
                )
            )
    with _wrap(path):
        return ImproveProblem(
            ImprovementSpec(frame, tuple(parts), _frac(d["budget"], f"{path}.budget"))
        )


def _improve_payload(pb: ImproveProblem) -> dict:
    return {
        "criteria": _frame_payload(pb.spec.frame),
        "parts": [
            {"id": p.id, "actions": _items_payload(p.actions, value_key="effect")}
            for p in pb.spec.parts
        ],
        "budget": encode_number(pb.spec.budget),
    }


_PARSERS = {
    "rank": _parse_rank,
    "knapsack": _parse_knapsack,
    "mckp": _parse_mckp,
    "cluster": _parse_cluster,
    "assign": _parse_assign,
    "tsp": _parse_tsp,
    "morph": _parse_morph,
    "trajectory": _parse_trajectory,
    "integrate": _parse_integrate,
    "pipeline": _parse_pipeline,
    "improve": _parse_improve,
}

def _integrate_payload(pb: IntegrateProblem) -> dict:
    return {"tree": _integration_node_payload(pb.tree)}


_PAYLOADS = {
    "rank": _rank_payload,
    "knapsack": _knapsack_payload,
    "mckp": _mckp_payload,
    "cluster": _cluster_payload,
    "assign": _assign_payload,
    "tsp": _tsp_payload,
    "morph": _morph_payload,
    "trajectory": _trajectory_payload,
    "integrate": _integrate_payload,
    "pipeline": _pipeline_payload,
    "improve": _improve_payload,
}


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_problem(text: str, strict: bool = True) -> ProblemFile:
    """Parse and fully validate a problem file.

    Every structural invariant of the target instance is checked here;
    error messages carry the JSON path of the offending value. Unknown
    keys are rejected unless strict is disabled.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"malformed JSON: {exc}") from exc
    doc = _obj(raw, "$", required=("spec_version", "problem_type", "payload"), optional=(), strict=strict)
    version = _int(doc["spec_version"], "$.spec_version")
    if version != SPEC_VERSION:
        _fail("$.spec_version", f"unsupported version {version}, expected {SPEC_VERSION}")
    ptype = _str(doc["problem_type"], "$.problem_type")
    if ptype not in PROBLEM_TYPES:
        _fail("$.problem_type", f"unknown problem type {ptype!r}")
    payload = _PARSERS[ptype](doc["payload"], "$.payload", strict)
    return ProblemFile(version, ptype, payload)


def write_problem(pf: ProblemFile) -> str:
    """Canonical text for a problem file (sorted keys, exact numbers)."""
    return _canonical(
        {
            "spec_version": pf.spec_version,
            "problem_type": pf.problem_type,
            "payload": _PAYLOADS[pf.problem_type](pf.payload),
        }
    )


# -------------------------------------------------------------------- results


@dataclass(frozen=True)
class ResultFile:
    spec_version: int
    problem_type: str
    method: str
    solution: dict
    diagnostics: dict


#: keys whose values (recursively) are measurement numbers
_NUMERIC_KEYS = {
    "scores",
    "score",
    "objective",
    "total_cost",
    "objective_vector",
    "height",
    "heights",
    "length",
    "cost",
    "budget",
    "p",
    "q",
    "time",
}


def _encode_tree(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return encode_number(obj)
    if isinstance(obj, dict):
        return {k: _encode_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_tree(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _decode_tree(obj: Any, numeric: bool) -> Any:
    if isinstance(obj, dict):
        return {
            k: _decode_tree(v, numeric or k in _NUMERIC_KEYS) for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_decode_tree(v, numeric) for v in obj]
    if numeric and not isinstance(obj, (bool, float)) and isinstance(obj, (int, str)):
        try:
            return as_frac(obj)
        except ValidationError:
            return obj
    return obj


def write_result(result: ResultFile, fmt: ResultFormat = ResultFormat.STRUCTURED) -> str:
    """Structured: canonical machine format. Text: human-readable report."""
    if fmt is ResultFormat.STRUCTURED:
        doc = {
            "spec_version": result.spec_version,
            "problem_type": result.problem_type,
            "method": result.method,
            "solution": _encode_tree(result.solution),
            "diagnostics": _encode_tree(
                {k: v for k, v in result.diagnostics.items() if v is not None}
            ),
        }
        return _canonical(doc)
    return _render_text(result)


def parse_result(text: str) -> ResultFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"malformed JSON: {exc}") from exc
    doc = _obj(
        raw,
        "$",
        required=("spec_version", "problem_type", "method", "solution", "diagnostics"),
        optional=(),
        strict=True,
    )
    return ResultFile(
        spec_version=_int(doc["spec_version"], "$.spec_version"),
        problem_type=_str(doc["problem_type"], "$.problem_type"),
        method=_str(doc["method"], "$.method"),
        solution=_decode_tree(doc["solution"], False),
        diagnostics=_decode_tree(doc["diagnostics"], False),
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
        for key in ("clusters1", "clusters2"):
            for i, block in enumerate(sol[key], 1):
                lines.append(f"{key[:-1]} {i}: " + ", ".join(block))
        for i, j in sol["assignment"]:
            lines.append(f"match: cluster1[{i}] -> cluster2[{j}]")
        for entry in sol["actions"]:
            lines.append(
                f"action ({entry['element1']}, {entry['element2']}): "
                f"{entry['action']} at cost {render_number(entry['cost'])}"
            )
        lines.append(f"total cost: {render_number(sol['total_cost'])}")
        lines.append(f"objective: {render_number(sol['objective'])}")
    else:
        lines.append(json.dumps(_encode_tree(sol), sort_keys=True))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- fixtures


def fixture_path(name: str) -> str:
    """Absolute path of a shipped fixture file."""
    return str(resources.files("hmmdkit").joinpath("fixtures", name))


def load_fixture(name: str) -> str:
    return resources.files("hmmdkit").joinpath("fixtures", name).read_text("utf-8")


@dataclass(frozen=True)
class QualityCase:
    a: QualityVector
    b: QualityVector
    relation: str  # a_dominates_b | b_dominates_a | incomparable


def load_quality_cases(text: str) -> list[QualityCase]:
    """Auxiliary fixture format: expected dominance relations between
    quality-vector pairs."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"malformed JSON: {exc}") from exc
    doc = _obj(raw, "$", required=("spec_version", "kind", "cases"), optional=(), strict=True)
    if _int(doc["spec_version"], "$.spec_version") != SPEC_VERSION:
        _fail("$.spec_version", "unsupported version")
    if doc["kind"] != "quality_cases":
        _fail("$.kind", f"expected 'quality_cases', got {doc['kind']!r}")
    cases = []
    for i, c in enumerate(_list(doc["cases"], "$.cases", min_len=1)):
        p = f"$.cases[{i}]"
        cd = _obj(c, p, required=("a", "b", "relation"), optional=(), strict=True)

        def qv(raw_q, path):
            qd = _obj(raw_q, path, required=("w", "counts"), optional=(), strict=True)
            counts = [
                _int(v, f"{path}.counts[{j}]")
                for j, v in enumerate(_list(qd["counts"], f"{path}.counts", min_len=1))
            ]
            with _wrap(path):
                return QualityVector(_int(qd["w"], f"{path}.w"), tuple(counts))

        relation = cd["relation"]
        if relation not in ("a_dominates_b", "b_dominates_a", "incomparable"):
            _fail(f"{p}.relation", f"unknown relation {relation!r}")
        cases.append(QualityCase(qv(cd["a"], f"{p}.a"), qv(cd["b"], f"{p}.b"), relation))
    return cases
