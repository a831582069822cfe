"""Seeded sweep of the record checks against the checks they replaced.

Every record routes its id, length and amount checks through the three
core rules (check_unique, check_lengths, nonnegative). Each record below
has an oracle: the earlier hand-written checks, written out in their
order with their texts (only those the sweep's faults can trip). The
sweep builds seeded instances with 0, 1 or 2 injected faults (a repeated
id, a vector one value short or long, a negative amount) and requires:

* the record accepts exactly the instances its oracle accepts;
* a rejection is the first failing rule in the record's own order, and it
  names the first repeated id or the first wrong entry (``expected``);
* the two orders pick the same rule on every two-fault instance, except
  in ThreeSetSpec, whose per-pair loop became one pass per rule.

Both ``oracle`` and ``expected`` return ``(rule, message)``, or None to
accept.
"""

import random
from fractions import Fraction

import pytest

from hmmdkit.assign import AssignmentInstance
from hmmdkit.cluster import DissimilarityMatrix
from hmmdkit.core import ValidationError
from hmmdkit.criteria import Criterion, CriteriaFrame, equal_weight_frame
from hmmdkit.exact import EstimateVector
from hmmdkit.improve import ImprovementPart, ImprovementSpec
from hmmdkit.knapsack import KnapsackInstance
from hmmdkit.mckp import Group, MckpInstance
from hmmdkit.morph import DesignAlternative, MorphNode
from hmmdkit.pipeline import PairActions, ThreeSetSpec
from hmmdkit.rank import RankingInstance, normalize_estimates
from hmmdkit.select import Item
from hmmdkit.trajectory import Stage, TrajectorySpec


def first_repeat(ids):
    """The id whose second occurrence comes first, or None."""
    return next((x for j, x in enumerate(ids) if x in ids[:j]), None)


def first(pairs):
    """The first ``(label, value)`` pair whose value is not None, or None."""
    return next(((label, v) for label, v in pairs if v is not None), None)


def wrong(values, k):
    """``len(values)`` when it is not ``k``, else None."""
    return len(values) if len(values) != k else None


def below_zero(x):
    return x if x < 0 else None


def length_message(label, n, k):
    return f"{label}: {n} values for {k} criteria"


# ------------------------------------------------------------ fault injection


def vec(rng, k):
    return [rng.randint(0, 9) for _ in range(k)]


def repeat(rng, entries, key=None):
    """Give one entry (or its ``key`` field) the id of an earlier one."""
    i = rng.randrange(1, len(entries))
    j = rng.randrange(i)
    if key is None:
        entries[i] = entries[j]
    else:
        entries[i][key] = entries[j][key]


def resize(rng, k):
    """A vector one value short (when k > 1) or one value long."""
    return vec(rng, rng.choice([k - 1, k + 1]) if k > 1 else k + 1)


def negative(rng):
    return -rng.choice([Fraction(1), Fraction(1, 2), Fraction(7)])


def items(rng, k, n, prefix="i"):
    """``[id, value, cost]`` entries, as items and actions take them."""
    return [[f"{prefix}{i}", vec(rng, k), Fraction(rng.randint(0, 5))] for i in range(n)]


def pick(rng, groups):
    """A random entry of a random non-empty list among ``groups``."""
    return rng.choice(rng.choice([g for g in groups if g]))


# -------------------------------------------------------------------- frame


def frame_base(rng):
    return {"criteria": [[f"c{i}", Fraction(rng.randint(1, 4))] for i in range(rng.randint(2, 4))]}


FRAME_FAULTS = {
    "repeat": lambda rng, d: repeat(rng, d["criteria"], 0),
    "negative": lambda rng, d: rng.choice(d["criteria"]).__setitem__(1, negative(rng)),
}


def frame_build(d):
    CriteriaFrame(tuple(Criterion(c, weight=w) for c, w in d["criteria"]))


def frame_oracle(d):
    for c, w in d["criteria"]:
        if w < 0:
            return "weight", f"criterion {c!r}: weight must be nonnegative"
    ids = [c for c, _ in d["criteria"]]
    if len(set(ids)) != len(ids):
        return "ids", f"duplicate criterion ids: {ids}"


def frame_expected(d):
    bad = first((c, below_zero(w)) for c, w in d["criteria"])
    if bad:
        return "weight", f"criterion {bad[0]!r}: weight must be nonnegative"
    dup = first_repeat([c for c, _ in d["criteria"]])
    if dup is not None:
        return "ids", f"duplicate criterion id {dup!r}"


# ------------------------------------------------------------ dissimilarity


def matrix_base(rng):
    n = rng.randint(2, 5)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i] = rng.randint(1, 9)
    return {"ids": [f"p{i}" for i in range(n)], "d": d}


def matrix_build(d):
    DissimilarityMatrix(d["ids"], d["d"])


def matrix_oracle(d):
    if len(set(d["ids"])) != len(d["ids"]):
        return "ids", f"duplicate ids: {list(d['ids'])}"


def matrix_expected(d):
    dup = first_repeat(d["ids"])
    if dup is not None:
        return "ids", f"duplicate id {dup!r}"


# --------------------------------------------------------------- morph node


def node_base(rng):
    return {"alternatives": [f"A{i}" for i in range(rng.randint(2, 5))]}


def node_build(d):
    MorphNode("n", (), tuple(DesignAlternative(a, 1) for a in d["alternatives"]))


def node_oracle(d):
    ids = d["alternatives"]
    if len(set(ids)) != len(ids):
        return "ids", "node 'n': duplicate alternative ids"


def node_expected(d):
    dup = first_repeat(d["alternatives"])
    if dup is not None:
        return "ids", f"node 'n': duplicate alternative id {dup!r}"


# --------------------------------------------------------------- assignment


def assign_base(rng):
    k, agents, positions = rng.randint(1, 3), rng.randint(2, 4), rng.randint(2, 3)
    return {
        "k": k,
        "agents": [f"a{i}" for i in range(agents)],
        "positions": [f"q{j}" for j in range(positions)],
        "cells": [[vec(rng, k) for _ in range(positions)] for _ in range(agents)],
    }


def assign_resize(rng, d):
    row = rng.choice(d["cells"])
    row[rng.randrange(len(row))] = resize(rng, d["k"])


ASSIGN_FAULTS = {
    "repeat agent": lambda rng, d: repeat(rng, d["agents"]),
    "repeat position": lambda rng, d: repeat(rng, d["positions"]),
    "resize": assign_resize,
}


def assign_build(d):
    cells = [[EstimateVector(v) for v in row] for row in d["cells"]]
    AssignmentInstance(d["agents"], d["positions"], cells, equal_weight_frame(d["k"]))


def assign_oracle(d):
    if len(set(d["agents"])) != len(d["agents"]):
        return "agents", "duplicate agent ids"
    if len(set(d["positions"])) != len(d["positions"]):
        return "positions", "duplicate position ids"
    for row in d["cells"]:
        for v in row:
            if len(v) != d["k"]:
                return "cells", "cell vector length mismatch with frame"


def assign_expected(d):
    for what, ids in (("agent", d["agents"]), ("position", d["positions"])):
        dup = first_repeat(ids)
        if dup is not None:
            return f"{what}s", f"duplicate {what} id {dup!r}"
    bad = first(
        ((a, q), wrong(v, d["k"])) for a, row in zip(d["agents"], d["cells"]) for q, v in zip(d["positions"], row)
    )
    if bad:
        return "cells", length_message(f"cell {bad[0]!r}", bad[1], d["k"])


# ----------------------------------------------------------------- knapsack


def knapsack_base(rng):
    k = rng.randint(1, 3)
    return {"k": k, "items": items(rng, k, rng.randint(2, 5)), "budget": Fraction(rng.randint(0, 9))}


def knapsack_build(d):
    its = [Item(i, EstimateVector(v), c) for i, v, c in d["items"]]
    KnapsackInstance(equal_weight_frame(d["k"]), its, d["budget"])


def knapsack_oracle(d):
    for i, _, c in d["items"]:
        if c < 0:
            return "cost", f"item {i!r}: cost must be nonnegative"
    if d["budget"] < 0:
        return "budget", "budget must be nonnegative"
    ids = [i for i, _, _ in d["items"]]
    if len(set(ids)) != len(ids):
        return "ids", f"duplicate item ids: {ids}"
    for i, v, _ in d["items"]:
        if len(v) != d["k"]:
            return "lengths", f"item {i!r}: value length mismatch"


def knapsack_expected(d):
    return item_rules(d, d["items"])


def item_rules(d, entries, groups=()):
    """Item costs, the budget, the group ids, the item ids, then the
    lengths: the order KnapsackInstance and MckpInstance share."""
    bad = first((i, below_zero(c)) for i, _, c in entries)
    if bad:
        return "cost", f"item {bad[0]!r}: cost must be nonnegative"
    if d["budget"] < 0:
        return "budget", "budget must be nonnegative"
    dup = first_repeat(groups)
    if dup is not None:
        return "groups", f"duplicate group id {dup!r}"
    dup = first_repeat([i for i, _, _ in entries])
    if dup is not None:
        return "ids", f"duplicate item id {dup!r}"
    bad = first((i, wrong(v, d["k"])) for i, v, _ in entries)
    if bad:
        return "lengths", length_message(f"item {bad[0]!r}", bad[1], d["k"])


def item_faults(entries):
    """Faults on the item lists that ``entries(d)`` returns."""

    def resize_item(rng, d):
        pick(rng, entries(d))[1] = resize(rng, d["k"])

    def negative_cost(rng, d):
        pick(rng, entries(d))[2] = negative(rng)

    return {"resize": resize_item, "negative cost": negative_cost, "negative budget": negative_budget}


def negative_budget(rng, d):
    d["budget"] = negative(rng)


KNAPSACK_FAULTS = {"repeat": lambda rng, d: repeat(rng, d["items"], 0), **item_faults(lambda d: [d["items"]])}


# --------------------------------------------------------------------- mckp


def mckp_base(rng):
    k = rng.randint(1, 3)
    groups = [[f"g{g}", items(rng, k, rng.randint(1, 3), f"i{g}.")] for g in range(rng.randint(2, 4))]
    return {"k": k, "groups": groups, "budget": Fraction(rng.randint(0, 9))}


def mckp_repeat_item(rng, d):
    entries = [it for _, its in d["groups"] for it in its]
    i = rng.randrange(1, len(entries))
    entries[i][0] = entries[rng.randrange(i)][0]


MCKP_FAULTS = {
    "repeat group": lambda rng, d: repeat(rng, d["groups"], 0),
    "repeat item": mckp_repeat_item,
    **item_faults(lambda d: [its for _, its in d["groups"]]),
}


def mckp_build(d):
    groups = [Group(g, [Item(i, EstimateVector(v), c) for i, v, c in its]) for g, its in d["groups"]]
    MckpInstance(equal_weight_frame(d["k"]), groups, d["budget"])


def mckp_oracle(d):
    for _, its in d["groups"]:
        for i, _, c in its:
            if c < 0:
                return "cost", f"item {i!r}: cost must be nonnegative"
    if d["budget"] < 0:
        return "budget", "budget must be nonnegative"
    gids = [g for g, _ in d["groups"]]
    if len(set(gids)) != len(gids):
        return "groups", f"duplicate group ids: {gids}"
    ids = [i for _, its in d["groups"] for i, _, _ in its]
    if len(set(ids)) != len(ids):
        return "ids", "item ids must be unique across groups"
    for _, its in d["groups"]:
        for i, v, _ in its:
            if len(v) != d["k"]:
                return "lengths", f"item {i!r}: value length mismatch"


def mckp_expected(d):
    return item_rules(d, [it for _, its in d["groups"] for it in its], [g for g, _ in d["groups"]])


# ------------------------------------------------------------------ ranking


def rank_base(rng):
    k = rng.randint(1, 3)
    return {"k": k, "alternatives": [[f"x{i}", vec(rng, k)] for i in range(rng.randint(2, 5))]}


RANK_FAULTS = {
    "repeat": lambda rng, d: repeat(rng, d["alternatives"], 0),
    "resize": lambda rng, d: rng.choice(d["alternatives"]).__setitem__(1, resize(rng, d["k"])),
}


def rank_build(d):
    RankingInstance(equal_weight_frame(d["k"]), [(a, EstimateVector(v)) for a, v in d["alternatives"]])


def rank_oracle(d):
    ids = [a for a, _ in d["alternatives"]]
    if len(set(ids)) != len(ids):
        return "ids", f"duplicate alternative ids: {ids}"
    for a, v in d["alternatives"]:
        if len(v) != d["k"]:
            return "lengths", f"alternative {a!r}: {len(v)} estimates for {d['k']} criteria"


def rank_expected(d):
    dup = first_repeat([a for a, _ in d["alternatives"]])
    if dup is not None:
        return "ids", f"duplicate alternative id {dup!r}"
    bad = first((a, wrong(v, d["k"])) for a, v in d["alternatives"])
    if bad:
        return "lengths", length_message(f"alternative {bad[0]!r}", bad[1], d["k"])


# ------------------------------------------------------------- row sets


def rows_base(rng):
    k = rng.randint(1, 3)
    return {"k": k, "rows": [vec(rng, k) for _ in range(rng.randint(2, 5))]}


def rows_resize(rng, d):
    d["rows"][rng.randrange(len(d["rows"]))] = resize(rng, d["k"])


def rows_build(d):
    normalize_estimates(equal_weight_frame(d["k"]), [EstimateVector(v) for v in d["rows"]])


def rows_oracle(d):
    for i, row in enumerate(d["rows"]):
        if len(row) != d["k"]:
            return "lengths", f"row {i} has {len(row)} values, frame has {d['k']} criteria"


def rows_expected(d):
    bad = first(enumerate(wrong(v, d["k"]) for v in d["rows"]))
    if bad:
        return "lengths", length_message(f"row {bad[0]}", bad[1], d["k"])


# --------------------------------------------------------------- trajectory


def trajectory_base(rng):
    n = iter(range(100))
    return {"stages": [[f"d{next(n)}" for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(2, 4))]}


def trajectory_repeat(rng, d):
    slots = [(s, j) for s in d["stages"] for j in range(len(s))]
    i = rng.randrange(1, len(slots))
    (s, j), (t, m) = slots[i], slots[rng.randrange(i)]
    s[j] = t[m]


def trajectory_build(d):
    TrajectorySpec([Stage(t, [(x, 1) for x in ids]) for t, ids in enumerate(d["stages"])], {})


def trajectory_oracle(d):
    ids = [x for s in d["stages"] for x in s]
    if len(set(ids)) != len(ids):
        return "ids", "decision ids must be unique across stages"


def trajectory_expected(d):
    dup = first_repeat([x for s in d["stages"] for x in s])
    if dup is not None:
        return "ids", f"duplicate decision id {dup!r}"


# -------------------------------------------------------------- improvement


def improve_base(rng):
    k = rng.randint(1, 3)
    parts = [[f"p{i}", items(rng, k, rng.randint(2, 3), f"x{i}.")] for i in range(rng.randint(2, 4))]
    return {"k": k, "parts": parts, "budget": Fraction(rng.randint(0, 9))}


IMPROVE_FAULTS = {
    "repeat part": lambda rng, d: repeat(rng, d["parts"], 0),
    "repeat action": lambda rng, d: repeat(rng, rng.choice(d["parts"])[1], 0),
    **item_faults(lambda d: [acts for _, acts in d["parts"]]),
}


def improve_build(d):
    parts = [ImprovementPart(p, [Item(a, EstimateVector(v), c) for a, v, c in acts]) for p, acts in d["parts"]]
    ImprovementSpec(equal_weight_frame(d["k"]), parts, d["budget"])


def improve_oracle(d):
    for p, acts in d["parts"]:
        for a, _, c in acts:
            if c < 0:
                return "cost", f"item {a!r}: cost must be nonnegative"
        ids = [a for a, _, _ in acts]
        if len(set(ids)) != len(ids):
            return "actions", f"part {p!r}: duplicate action ids: {ids}"
    if d["budget"] < 0:
        return "budget", "budget must be nonnegative"
    ids = [p for p, _ in d["parts"]]
    if len(set(ids)) != len(ids):
        return "parts", "duplicate part ids"
    for p, acts in d["parts"]:
        for a, v, _ in acts:
            if len(v) != d["k"]:
                return "lengths", f"part {p!r}, action {a!r}: effect length mismatch"


def improve_expected(d):
    for p, acts in d["parts"]:
        bad = first((a, below_zero(c)) for a, _, c in acts)
        if bad:
            return "cost", f"item {bad[0]!r}: cost must be nonnegative"
        dup = first_repeat([a for a, _, _ in acts])
        if dup is not None:
            return "actions", f"part {p!r}: duplicate action id {dup!r}"
    if d["budget"] < 0:
        return "budget", "budget must be nonnegative"
    dup = first_repeat([p for p, _ in d["parts"]])
    if dup is not None:
        return "parts", f"duplicate part id {dup!r}"
    bad = first(((p, a), wrong(v, d["k"])) for p, acts in d["parts"] for a, v, _ in acts)
    if bad:
        return "lengths", length_message("part {!r}, action {!r}".format(*bad[0]), bad[1], d["k"])


# ----------------------------------------------------------------- pipeline


def pipeline_base(rng):
    k, ka = rng.randint(1, 3), rng.randint(1, 3)
    m1, m2 = matrix_base(rng), matrix_base(rng)
    m2["ids"] = [f"r{i}" for i in range(len(m2["ids"]))]
    pairs = rng.sample([(e, f) for e in m1["ids"] for f in m2["ids"]], rng.randint(2, 4))
    return {
        "k": k,
        "ka": ka,
        "set1": m1,
        "set2": m2,
        "correspondence": [[vec(rng, k) for _ in m2["ids"]] for _ in m1["ids"]],
        "actions": [[e, f, items(rng, ka, rng.randint(2, 3), "t")] for e, f in pairs],
        "budget": Fraction(rng.randint(0, 9)),
    }


def pipeline_repeat_pair(rng, d):
    i = rng.randrange(1, len(d["actions"]))
    d["actions"][i][:2] = d["actions"][rng.randrange(i)][:2]


def pipeline_resize_cell(rng, d):
    row = rng.choice(d["correspondence"])
    row[rng.randrange(len(row))] = resize(rng, d["k"])


def pipeline_resize_action(rng, d):
    rng.choice(rng.choice(d["actions"])[2])[1] = resize(rng, d["ka"])


PIPELINE_FAULTS = {
    "repeat pair": pipeline_repeat_pair,
    "repeat action": lambda rng, d: repeat(rng, rng.choice(d["actions"])[2], 0),
    "resize cell": pipeline_resize_cell,
    "resize action": pipeline_resize_action,
    "negative cost": lambda rng, d: rng.choice(rng.choice(d["actions"])[2]).__setitem__(2, negative(rng)),
    "negative budget": negative_budget,
}


def pipeline_build(d):
    m1, m2 = (DissimilarityMatrix(m["ids"], m["d"]) for m in (d["set1"], d["set2"]))
    acts = [PairActions(e, f, [Item(a, EstimateVector(v), c) for a, v, c in its]) for e, f, its in d["actions"]]
    cells = [[EstimateVector(v) for v in row] for row in d["correspondence"]]
    ThreeSetSpec(m1, m2, 1, 1, equal_weight_frame(d["k"]), cells, equal_weight_frame(d["ka"]), acts, d["budget"])


def pipeline_oracle(d):
    for e, f, its in d["actions"]:
        for a, _, c in its:
            if c < 0:
                return "cost", f"item {a!r}: cost must be nonnegative"
        ids = [a for a, _, _ in its]
        if len(set(ids)) != len(ids):
            return "actions", f"pair ({e!r}, {f!r}): duplicate action ids: {ids}"
    if d["budget"] < 0:
        return "budget", "budget must be nonnegative"
    for row in d["correspondence"]:
        for v in row:
            if len(v) != d["k"]:
                return "cells", "correspondence vector length mismatch"
    seen = set()
    for e, f, its in d["actions"]:
        if (e, f) in seen:
            return "pairs", f"duplicate action group for ({e!r}, {f!r})"
        seen.add((e, f))
        for a, v, _ in its:
            if len(v) != d["ka"]:
                return "lengths", f"action {a!r}: value length mismatch"


def pipeline_expected(d):
    for e, f, its in d["actions"]:
        bad = first((a, below_zero(c)) for a, _, c in its)
        if bad:
            return "cost", f"item {bad[0]!r}: cost must be nonnegative"
        dup = first_repeat([a for a, _, _ in its])
        if dup is not None:
            return "actions", f"pair ({e!r}, {f!r}): duplicate action id {dup!r}"
    if d["budget"] < 0:
        return "budget", "budget must be nonnegative"
    bad = first(
        ((e, f), wrong(v, d["k"]))
        for e, row in zip(d["set1"]["ids"], d["correspondence"])
        for f, v in zip(d["set2"]["ids"], row)
    )
    if bad:
        return "cells", length_message("correspondence ({!r}, {!r})".format(*bad[0]), bad[1], d["k"])
    dup = first_repeat([(e, f) for e, f, _ in d["actions"]])
    if dup is not None:
        return "pairs", f"duplicate action group for {dup!r}"
    bad = first(((e, f, a), wrong(v, d["ka"])) for e, f, its in d["actions"] for a, v, _ in its)
    if bad:
        return "lengths", length_message("pair ({!r}, {!r}), action {!r}".format(*bad[0]), bad[1], d["ka"])


# -------------------------------------------------------------------- sweep

#: record -> (base, faults, build, oracle, expected)
RECORDS = {
    "frame": (frame_base, FRAME_FAULTS, frame_build, frame_oracle, frame_expected),
    "dissimilarities": (
        matrix_base, {"repeat": lambda rng, d: repeat(rng, d["ids"])}, matrix_build, matrix_oracle, matrix_expected,
    ),
    "morph node": (
        node_base, {"repeat": lambda rng, d: repeat(rng, d["alternatives"])}, node_build, node_oracle, node_expected,
    ),
    "assignment": (assign_base, ASSIGN_FAULTS, assign_build, assign_oracle, assign_expected),
    "knapsack": (knapsack_base, KNAPSACK_FAULTS, knapsack_build, knapsack_oracle, knapsack_expected),
    "mckp": (mckp_base, MCKP_FAULTS, mckp_build, mckp_oracle, mckp_expected),
    "ranking": (rank_base, RANK_FAULTS, rank_build, rank_oracle, rank_expected),
    "rows": (rows_base, {"resize": rows_resize}, rows_build, rows_oracle, rows_expected),
    "trajectory": (
        trajectory_base, {"repeat": trajectory_repeat}, trajectory_build, trajectory_oracle, trajectory_expected,
    ),
    "improvement": (improve_base, IMPROVE_FAULTS, improve_build, improve_oracle, improve_expected),
    "pipeline": (pipeline_base, PIPELINE_FAULTS, pipeline_build, pipeline_oracle, pipeline_expected),
}

#: records whose first reported rule may differ from the oracle's on two faults
REORDERED = {"pipeline"}


def outcome(build, d):
    try:
        build(d)
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_accept_what_the_oracle_accepts_and_name_the_first_fault(name):
    base, faults, build, oracle, expected = RECORDS[name]
    rng = random.Random(f"records {name}")
    reordered, rejected = 0, 0
    for n in [0, 1, 2] * 150:
        d = base(rng)
        for fault in rng.choices(sorted(faults), k=n):
            faults[fault](rng, d)
        old, new = oracle(d), expected(d)
        assert (old is None) == (new is None) == (n == 0), (d, old, new)
        assert outcome(build, d) == (new and new[1])
        if n == 1:
            assert old[0] == new[0], (d, old, new)
        if n == 2:
            rejected += 1
            reordered += old[0] != new[0]
    assert rejected and (reordered > 0) == (name in REORDERED)
