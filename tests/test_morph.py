import contextlib
import gc
import itertools
import json
import math
import random
import re
from collections import Counter

import pytest

from conftest import course_system
from hmmdkit.cli import main
from hmmdkit.core import (
    DEFAULT_COMPAT_SCALE,
    Best,
    EstimateVector,
    GuardExceeded,
    OrdinalScale,
    ValidationError,
    check_guard,
)
from hmmdkit.morph import (
    MAX_COMBINATIONS,
    CompositeDecision,
    DesignAlternative,
    MorphNode,
    MorphSystem,
    QualityVector,
    compose_node,
    n_dominates,
    walk,
)
from hmmdkit.probio import SPEC_VERSION, ProblemFile, fixture_path, load_fixture, write_problem
from hmmdkit.rank import pareto_layers
from hmmdkit.synth import MorphProblem, report_synth, synthesize_tree, synthesize_tree_trace


def qv(w, *counts):
    return QualityVector(w, tuple(counts))


# ------------------------------------------------------------- quality_vector


def quality_vector(system, node_id, selection):
    """Quality of an explicit selection over a node's leaf children, through
    compose_node (the library function of that name, which only tests called)."""
    node = system.node(node_id)
    if node.is_leaf:
        raise ValidationError(f"node {node_id!r} is a leaf")
    chosen = {}
    for child in node.children:
        if child.id not in selection:
            raise ValidationError(f"selection misses child {child.id!r}")
        if not child.is_leaf:
            raise ValidationError(f"child {child.id!r} is internal; use the synthesis entry point")
        matches = [da for da in child.alternatives if da.id == selection[child.id]]
        if not matches:
            raise ValidationError(f"child {child.id!r} has no alternative {selection[child.id]!r}")
        chosen[child.id] = matches[:1]
    (decision,) = compose_node(system, node_id, chosen, allow_zero_w=True)
    return decision.quality


def test_quality_of_reference_compositions():
    system = course_system()
    e1 = quality_vector(system, "E", {"L": "L2", "M": "M2", "F": "F2", "G": "G3"})
    assert e1 == qv(2, 4, 0, 0)
    e2 = quality_vector(system, "E", {"L": "L3", "M": "M3", "F": "F2", "G": "G3"})
    assert e2 == qv(3, 2, 2, 0)


def test_quality_uniform_best():
    leafs = tuple(
        MorphNode(f"p{i}", alternatives=(DesignAlternative(f"d{i}", 1),))
        for i in range(3)
    )
    system = MorphSystem(
        root=MorphNode("root", children=leafs),
        compat={
            ("root", "d0", "d1"): 3,
            ("root", "d0", "d2"): 3,
            ("root", "d1", "d2"): 3,
        },
    )
    q = quality_vector(system, "root", {"p0": "d0", "p1": "d1", "p2": "d2"})
    assert q == qv(3, 3, 0, 0)
    assert q.render() == "(3; 3, 0, 0)"


def test_quality_errors():
    system = course_system()
    with pytest.raises(ValidationError):
        quality_vector(system, "E", {"L": "L2", "M": "M2", "F": "F2"})
    with pytest.raises(ValidationError):
        quality_vector(system, "E", {"L": "nope", "M": "M2", "F": "F2", "G": "G3"})


def test_quality_vector_reads_the_guard_override(monkeypatch):
    monkeypatch.setenv("HMMD_KIT_GUARD", "abc")
    with pytest.raises(ValidationError, match="HMMD_KIT_GUARD"):
        quality_vector(course_system(), "E", {"L": "L2", "M": "M2", "F": "F2", "G": "G3"})


def _quality(system, node, chosen, level_count):
    """Quality of one composition plus whether it contains a zero pair: every
    pair of chosen parts looked up in the node's pair table (the code
    compose_node ran per composition before it enumerated on keys)."""
    pairs = system._pairs[node.id]
    worst = None
    has_zero = False
    for (_, da_a), (_, da_b) in itertools.combinations(chosen, 2):
        value = pairs.get((da_a.id, da_b.id))
        if value is None:
            continue  # unconstrained pair counts as best
        if value == 0:
            has_zero = True
        if worst is None or value < worst:
            worst = value
    w = system.compat_scale.hi if worst is None else worst
    counts = [0] * level_count
    for _, da in chosen:
        counts[da.priority - system.priority_scale.lo] += 1
    return QualityVector(w, tuple(counts)), has_zero


def parent_n_dominates(a, b):
    """n_dominates with its rule written out: w and every zero-padded
    cumulative count at least b's, one of them strictly more."""
    if a.m != b.m:
        raise ValidationError(f"part-count mismatch: {a.m} vs {b.m}")
    width = max(len(a.counts), len(b.counts))
    ca, cb = a.cumulative(width), b.cumulative(width)
    ge = a.w >= b.w and all(x >= y for x, y in zip(ca, cb))
    strict = a.w > b.w or any(x > y for x, y in zip(ca, cb))
    return ge and strict


def _canonical_sort(decisions):
    """Descending w, then descending cumulative counts, then selection ids:
    the order compose_node gave its front by sorting it once more."""
    width = max((len(d.quality.counts) for d in decisions), default=0)
    return sorted(
        decisions,
        key=lambda d: (
            -d.quality.w,
            tuple(-c for c in d.quality.cumulative(width)),
            d.selection,
        ),
    )


def priorities_from_quality(decisions):
    """Ordinal priorities of composites: dominance layer index (dense). This
    peel ran over every node's front in synthesis, which is one layer."""
    if not decisions:
        raise ValidationError("no decisions to prioritize")
    parts = {d.quality.m for d in decisions}
    if len(parts) != 1:
        raise ValidationError(f"mixed part counts: {sorted(parts)}")
    width = max(len(d.quality.counts) for d in decisions)
    layers = pareto_layers([(d.quality.w, *d.quality.cumulative(width)) for d in decisions])
    return dict(zip(decisions, layers))


def reference_compose_node(system, node_id, child_das=None, *, allow_zero_w=False):
    """compose_node as a product loop: one QualityVector and one
    CompositeDecision per feasible composition, all of them filtered."""
    node = system.node(node_id)
    pools = []
    max_priority = system.priority_scale.hi
    for child in node.children:
        if child_das is not None and child.id in child_das:
            das = list(child_das[child.id])
        else:
            das = list(child.alternatives)
        max_priority = max(max_priority, max(da.priority for da in das))
        pools.append([(child.id, da) for da in das])
    check_guard(math.prod(map(len, pools)), MAX_COMBINATIONS, "combinations")
    level_count = max_priority - system.priority_scale.lo + 1
    feasible = []
    for combo in itertools.product(*pools):
        quality, has_zero = _quality(system, node, combo, level_count)
        if has_zero and not allow_zero_w:
            continue
        feasible.append(CompositeDecision(tuple((cid, da.id) for cid, da in combo), quality))
    qualities = list(dict.fromkeys(d.quality for d in feasible))
    front = {q for q in qualities if not any(parent_n_dominates(o, q) for o in qualities)}
    return _canonical_sort([d for d in feasible if d.quality in front])


def reference_quality_vector(system, node_id, selection):
    """quality_vector as it was before it went through compose_node: the
    pool and the level count built by hand."""
    node = system.node(node_id)
    chosen = []
    max_priority = system.priority_scale.hi
    for child in node.children:
        da = next(da for da in child.alternatives if da.id == selection[child.id])
        chosen.append((child.id, da))
        max_priority = max(max_priority, da.priority)
    quality, _ = _quality(system, node, chosen, max_priority - system.priority_scale.lo + 1)
    return quality


# ---------------------------------------------------------------- n_dominates


def test_reference_quality_pair_is_incomparable():
    a, b = qv(1, 2, 1, 0), qv(3, 1, 0, 2)
    assert not n_dominates(a, b)
    assert not n_dominates(b, a)


def test_equal_vectors_do_not_dominate():
    assert not n_dominates(qv(3, 3, 0, 0), qv(3, 3, 0, 0))


def test_dominance_by_w_alone():
    assert n_dominates(qv(3, 2, 1, 0), qv(2, 2, 1, 0))


def test_dominance_mismatched_part_counts():
    with pytest.raises(ValidationError):
        n_dominates(qv(3, 1, 0), qv(3, 1, 1))


def test_dominance_pads_counts():
    assert n_dominates(qv(3, 2, 1), qv(3, 1, 1, 1))


def test_n_dominates_is_strict_partial_order():
    rng = random.Random(137)
    for _ in range(1000):
        vs = []
        for _ in range(3):
            counts = [rng.randint(0, 2) for _ in range(3)]
            counts[0] += 3 - min(3, sum(counts))  # keep m = 3 when short
            while sum(counts) > 3:
                k = max(i for i in range(3) if counts[i] > 0)
                counts[k] -= 1
            vs.append(qv(rng.randint(0, 3), *counts))
        a, b, c = vs
        assert not n_dominates(a, a)
        if n_dominates(a, b):
            assert not n_dominates(b, a)
        if n_dominates(a, b) and n_dominates(b, c):
            assert n_dominates(a, c)


def test_n_dominates_equals_the_written_out_rule():
    # n_dominates compares (w, *cumulative counts) keys through core.dominates,
    # the function compose_node filters its keys with
    rng = random.Random(229)
    outcomes = Counter()
    for _ in range(3000):
        m = rng.randint(1, 4)
        vs = []
        for _ in range(2):
            counts = [0] * rng.randint(1, 4)
            for _ in range(m):
                counts[rng.randrange(len(counts))] += 1
            vs.append(QualityVector(rng.randint(-1, 3), tuple(counts)))
        a, b = vs
        outcomes[n_dominates(a, b)] += 1
        assert n_dominates(a, b) == parent_n_dominates(a, b)
    assert min(outcomes.values()) > 300, outcomes
    with pytest.raises(ValidationError, match=r"^part-count mismatch: 2 vs 3$"):
        n_dominates(qv(3, 2), qv(3, 1, 2))


def test_da_priority_must_sit_inside_the_scale():
    leafs = (
        MorphNode("p0", alternatives=(DesignAlternative("a", 4),)),
        MorphNode("p1", alternatives=(DesignAlternative("b", 1),)),
    )
    with pytest.raises(ValidationError, match="priority 4 outside"):
        MorphSystem(MorphNode("root", children=leafs), {})


def test_estimates_within_a_leaf_have_one_length(tmp_path, capsys):
    # a leaf's alternatives used to carry estimate vectors of any lengths
    message = "node 'p': alternative 'c' has 3 estimates, 'a' has 2"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        MorphNode("p", alternatives=(
            DesignAlternative("a", 1, EstimateVector([1, 2])),
            DesignAlternative("b", 1),
            DesignAlternative("c", 2, EstimateVector([1, 2, 3])),
        ))
    doc = json.loads(load_fixture("course_example.morph"))
    leaf = doc["payload"]["tree"]["children"][0]["children"][0]
    assert leaf["id"] == "L"
    for alternative, estimates in zip(leaf["alternatives"], ([1], [1, 2, 3])):
        alternative["estimates"] = estimates
    path = tmp_path / "course.morph"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", "--input", str(path)]) == 3
    assert capsys.readouterr().err == (
        "hmmdkit: error: parse: $.payload.tree.children[0].children[0]: "
        "node 'L': alternative 'L2' has 3 estimates, 'L1' has 1\n"
    )
    # equal lengths, with some alternatives carrying none, leave the report as it was
    leaf["alternatives"][0]["estimates"] = [4, 5, 6]
    path.write_text(json.dumps(doc), encoding="utf-8")
    reports = []
    for source in (path, fixture_path("course_example.morph")):
        assert main(["synth", "--input", str(source), "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_compose_rejects_empty_supplied_alternative_set():
    system = course_system()
    with pytest.raises(ValidationError, match="no alternatives"):
        compose_node(system, "E", child_das={"L": []})


def test_compat_table_validation(tmp_path, capsys):
    leafs = (
        MorphNode("p0", alternatives=(DesignAlternative("a1", 1), DesignAlternative("a2", 2))),
        MorphNode("p1", alternatives=(DesignAlternative("b1", 1),)),
    )
    root = MorphNode("root", children=leafs)
    unknown = "node 'root': compatibility key ('a1', 'ghost'): 'ghost' is not an alternative of any child"
    same = "node 'root': compatibility key ('a1', 'a2'): both belong to the same child 'p0'"
    # unknown alternative referenced by a table
    with pytest.raises(ValidationError, match=f"^{re.escape(unknown)}$"):
        MorphSystem(root, {("root", "a1", "ghost"): 2})
    # both alternatives belong to the same child
    with pytest.raises(ValidationError, match=f"^{re.escape(same)}$"):
        MorphSystem(root, {("root", "a1", "a2"): 2})
    # both orientations of one pair
    with pytest.raises(ValidationError, match="orientations"):
        MorphSystem(root, {("root", "a1", "b1"): 2, ("root", "b1", "a1"): 2})
    # tables cannot live on leaves
    with pytest.raises(ValidationError, match="leaf"):
        MorphSystem(root, {("p0", "a1", "b1"): 2})
    # value outside the scale
    with pytest.raises(ValidationError, match="outside"):
        MorphSystem(root, {("root", "a1", "b1"): 7})
    # the parse path reports the same key messages at the payload
    doc = json.loads(write_problem(ProblemFile(
        SPEC_VERSION, "morph", MorphProblem(MorphSystem(root, {("root", "a1", "b1"): 2}))
    )))
    for right, message in (("ghost", unknown), ("a2", same)):
        doc["payload"]["compat"][0]["right"] = right
        path = tmp_path / f"{right}.morph"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["synth", "--input", str(path)]) == 3
        assert capsys.readouterr().err == f"hmmdkit: error: parse: $.payload: {message}\n"


def test_root_tables_between_derived_composites_constrain_synthesis():
    # nodes with internal children may reference derived composite ids;
    # here the pairing of the first two subsystem composites is ruled out
    base = course_system()
    before = synthesize_tree(base)
    assert len(before) == 4
    compat = dict(base.compat)
    compat[("S", "E_1", "H_1")] = 0
    constrained = MorphSystem(base.root, compat)
    after = synthesize_tree(constrained)
    assert len(after) == 3
    assert all(
        not (dict(d.selection)["E"] == "E_1" and dict(d.selection)["H"] == "H_1")
        for d in after
    )


@pytest.mark.parametrize(
    "left, right, reason",
    [
        pytest.param("typo", "also_typo", "'typo' is not an alternative of any child",
                      id="typo-also_typo"),
        pytest.param("E_1", "ghost", "'ghost' is not an alternative of any child", id="E_1-ghost"),
        pytest.param("E_1", "E_2", "both belong to the same child 'E'", id="E_1-E_2"),
        pytest.param("E_9", "H_1", "'E_9' is not an alternative of any child", id="E_9-H_1"),
        pytest.param("H_1", "L2", "'L2' is not an alternative of any child", id="H_1-L2"),
        pytest.param("W_1", "W_1", "both belong to the same child 'W'", id="W_1-W_1"),
    ],
)
def test_unmatched_compat_key_at_internal_child_node_rejected(left, right, reason):
    # "S" has internal children, so its keys can only be checked once
    # synthesis has named the derived composites E_k and H_k
    base = course_system()
    compat = dict(base.compat)
    compat[("S", left, right)] = 0
    system = MorphSystem(base.root, compat)
    message = f"node 'S': compatibility key ('{left}', '{right}'): {reason}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        synthesize_tree(system)


# ------------------------------------------- the pair table and its oracle


def parent_compatibility(compat, node_id, a, b):
    """MorphSystem.compatibility before the pair table: one probe per orientation."""
    hit = compat.get((node_id, a, b))
    if hit is None:
        hit = compat.get((node_id, b, a))
    return hit


def parent_key_errors(root, compat, scale=DEFAULT_COMPAT_SCALE):
    """The per-key checks MorphSystem made before the pair table, run on every
    key: (node id, the parent's message, whether it is the key rule) for each
    failing key, in key order. The parent raised the first of them."""
    nodes = {n.id: n for n in walk(root)}
    errors = []
    for (node_id, a, b), value in compat.items():
        owner = nodes.get(node_id)
        if owner is None:
            errors.append((node_id, f"compatibility table for unknown node {node_id!r}", False))
        elif (node_id, b, a) in compat and (a, b) != (b, a):
            errors.append((node_id, f"both orientations of pair {a!r}-{b!r} present at node "
                           f"{node_id!r}", False))
        elif not scale.contains(value):
            errors.append((node_id, f"compatibility {a!r}-{b!r} at node {node_id!r}: {value} outside "
                           f"[{scale.lo}, {scale.hi}]", False))
        elif owner.is_leaf:
            errors.append((node_id, f"compatibility table on leaf node {node_id!r}", False))
        elif all(c.is_leaf for c in owner.children):
            homes = {alt.id: c.id for c in owner.children for alt in c.alternatives}
            if a not in homes or b not in homes:
                missing = a if a not in homes else b
                errors.append((node_id, f"node {node_id!r}: {missing!r} is not an alternative "
                               "of any child", True))
            elif homes[a] == homes[b]:
                errors.append((node_id, f"node {node_id!r}: {a!r} and {b!r} belong to the same child "
                               f"{homes[a]!r}", True))
    return errors


def parent_synthesis(system, compat):
    """The parent's synthesis of a two-level system, for what this test needs:
    each internal child's front (brute force over the two-probe lookup), then
    the parent's scan of every key against the ids the children offer, then
    the root front. Derived composites all carry priority 1, since a front
    is one dominance layer. Returns (parent's error or None, root front)."""
    root = system.root
    pools = []
    for child in root.children:
        das = child.alternatives
        if not child.is_leaf:
            lookup = lambda a, b, n=child.id: parent_compatibility(compat, n, a, b)
            front = brute_force_front(system, child.id, lookup=lookup)
            if not front:
                return f"node {child.id!r}: every composition contains an infeasible pair", set()
            das = [DesignAlternative(f"{child.id}_{k + 1}", 1) for k in range(len(front))]
        pools.append([(child.id, da) for da in das])
    homes = {da.id: cid for pool in pools for cid, da in pool}
    for node_id, a, b in compat:
        if node_id == root.id and (a not in homes or b not in homes or homes[a] == homes[b]):
            return (f"node {root.id!r}: compatibility key ({a!r}, {b!r}) names no pair of "
                    "alternatives from two different children"), set()
    front = brute_force_front(system, root.id, pools=pools,
                              lookup=lambda a, b: parent_compatibility(compat, root.id, a, b))
    if not front:
        return f"node {root.id!r}: every composition contains an infeasible pair", set()
    return None, front


def in_parent_words(message, synthesis=False):
    """A key message as the parent worded it at construction or synthesis."""
    m = re.fullmatch(r"(node '\w+': )compatibility key \(('\w+'), ('\w+')\): (.*)", message or "")
    if m is None:
        return message
    head, a, b, reason = m.groups()
    if synthesis:
        return (f"{head}compatibility key ({a}, {b}) names no pair of alternatives "
                "from two different children")
    if reason.startswith("both belong"):
        return f"{head}{a} and {b} belong to the same child {reason.rsplit(' ', 1)[1]}"
    return head + reason


def random_two_level_system(rng):
    """Root "r" over leaf children p<i> and internal children c<i> of two
    leaves. Every internal node gets a sparse key table over the ids its
    children offer (c<i>_1 at the root), some keys reversed. Then each
    fault below is added to about one system in twelve."""
    children, groups, compat = [], {}, {}

    def alternatives(prefix):
        count = rng.randint(1, 3)
        return tuple(DesignAlternative(f"{prefix}d{j}", rng.randint(1, 3)) for j in range(count))

    for i in range(rng.randint(2, 3)):
        if rng.random() < 0.5:
            children.append(MorphNode(f"p{i}", alternatives=alternatives(f"p{i}")))
        else:
            kids = tuple(
                MorphNode(f"c{i}q{k}", alternatives=alternatives(f"c{i}q{k}")) for k in range(2)
            )
            children.append(MorphNode(f"c{i}", children=kids))
            groups[f"c{i}"] = {kid.id: [da.id for da in kid.alternatives] for kid in kids}
    groups["r"] = {
        c.id: [da.id for da in c.alternatives] if c.is_leaf else [f"{c.id}_1"] for c in children
    }
    for node_id, offers in groups.items():
        for g1, g2 in itertools.combinations(offers.values(), 2):
            for a, b in itertools.product(g1, g2):
                if rng.random() < 0.7:
                    a, b = (a, b) if rng.random() < 0.7 else (b, a)
                    compat[node_id, a, b] = rng.choice((0, 0, 1, 2, 3))
    root = MorphNode("r", children=tuple(children))
    ids = [x for offers in groups.values() for group in offers.values() for x in group]
    nodes = {n.id: n for n in walk(root)}
    all_leaf = [n for n in groups if all(c.is_leaf for c in nodes[n].children)]
    for fault in range(8):
        if not compat or rng.random() >= 1 / 12:
            continue
        node_id, a = rng.choice(list(groups)), rng.choice(ids)
        key = rng.choice(list(compat))
        if fault == 0:  # both orientations
            compat.setdefault((key[0], key[2], key[1]), 2)
        elif fault == 1:  # an id no child offers
            compat[node_id, a, "zz"] = 1
        elif fault == 2:  # two ids of one child, maybe the same id twice
            group = rng.choice(list(groups[node_id].values()))
            compat[node_id, rng.choice(group), rng.choice(group)] = 1
        elif fault == 3 and all_leaf:  # a derived id where only leaves are offered
            compat[rng.choice(all_leaf), f"{rng.choice(list(groups))}_1", a] = 1
        elif fault == 4:
            compat["ghost", a, rng.choice(ids)] = 1
        elif fault == 5:
            compat[rng.choice([n for n in nodes if nodes[n].is_leaf]), a, rng.choice(ids)] = 1
        elif fault == 6:
            compat[key] = rng.choice((-1, 4))
        elif fault == 7:  # a composite past a child's front
            compat["r", f"{rng.choice(list(groups))}_{rng.randint(2, 3)}", a] = 2
    return root, compat


def test_compat_key_naming_an_id_two_children_share_is_rejected(tmp_path, capsys):
    # the key used to constrain p0.x-c and p1.x-c alike
    leafs = (
        MorphNode("p0", alternatives=(DesignAlternative("x", 1), DesignAlternative("a", 1))),
        MorphNode("p1", alternatives=(DesignAlternative("x", 1), DesignAlternative("b", 1))),
        MorphNode("p2", alternatives=(DesignAlternative("c", 1),)),
    )
    root = MorphNode("r", children=leafs)
    message = "node 'r': compatibility key ('x', 'c'): 'x' is an alternative of both 'p0' and 'p1'"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        MorphSystem(root, {("r", "x", "c"): 1})
    system = MorphSystem(root, {("r", "a", "c"): 3})
    assert len(synthesize_tree(system)) == 4  # a shared id no key names is fine
    doc = json.loads(write_problem(ProblemFile(SPEC_VERSION, "morph", MorphProblem(system))))
    doc["payload"]["compat"][0]["left"] = "x"
    path = tmp_path / "shared.morph"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", "--input", str(path)]) == 3
    assert capsys.readouterr().err == f"hmmdkit: error: parse: $.payload: {message}\n"
    # a derived composite id that a leaf sibling also offers, found in synthesis
    sub = MorphNode("s", children=(MorphNode("q", alternatives=(DesignAlternative("q1", 1),)),))
    leaf = MorphNode("p", alternatives=(DesignAlternative("s_1", 1), DesignAlternative("y", 2)))
    system = MorphSystem(MorphNode("r", children=(sub, leaf)), {("r", "y", "s_1"): 2})
    message = "node 'r': compatibility key ('y', 's_1'): 's_1' is an alternative of both 's' and 'p'"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        synthesize_tree(system)


def test_pair_table_matches_the_parent_lookup_and_checks():
    # a fault other than the key rule is reported first, in key order; the
    # parent reported whichever fault came first in key order. Key-rule
    # faults are reported node by node in pre-order, then in key order.
    rng = random.Random(211)
    outcomes = Counter()
    for _ in range(400):
        root, compat = random_two_level_system(rng)
        errors = parent_key_errors(root, compat)
        try:
            system = MorphSystem(root, compat)
        except ValidationError as exc:
            order = {n.id: i for i, n in enumerate(walk(root))}
            other = [m for _, m, key_rule in errors if not key_rule]
            key_rule = sorted((e for e in errors if e[2]), key=lambda e: order[e[0]])
            expected = other[0] if other else key_rule[0][1]
            assert in_parent_words(str(exc)) == expected
            outcomes["rejected, reordered" if expected != errors[0][1] else "rejected"] += 1
            continue
        assert not errors
        ids = {x for k in compat for x in k[1:]} | {"zz", "r_1"}
        ids |= {da.id for n in walk(root) for da in n.alternatives}
        for node_id in [n.id for n in walk(root)] + ["ghost"]:
            for a, b in itertools.product(ids, repeat=2):
                expected = parent_compatibility(compat, node_id, a, b)
                assert system.compatibility(node_id, a, b) == expected
        want, front = parent_synthesis(system, compat)
        try:
            got = set(synthesize_tree_trace(system).root.decisions)
        except ValidationError as exc:
            assert in_parent_words(str(exc), synthesis=True) == want
            outcomes["synthesis: key" if "compatibility key" in want else "synthesis: infeasible"] += 1
            continue
        assert want is None and got == front
        outcomes["synthesized"] += 1
    assert len(outcomes) == 5 and min(outcomes.values()) >= 5, outcomes


# --------------------------------------------------------------- compose_node


def expected_part_fronts():
    return {
        "E": {
            (("L", "L2"), ("M", "M2"), ("F", "F2"), ("G", "G3")): qv(2, 4, 0, 0),
            (("L", "L3"), ("M", "M3"), ("F", "F2"), ("G", "G3")): qv(3, 2, 2, 0),
        },
        "H": {
            (("D", "D3"), ("O", "O3"), ("B", "B3")): qv(3, 3, 0, 0),
            (("D", "D3"), ("O", "O3"), ("B", "B4")): qv(3, 3, 0, 0),
        },
        "W": {
            (("P", "P4"), ("I", "I3"), ("C", "C3")): qv(3, 3, 0, 0),
        },
    }


@pytest.mark.parametrize("part", ["E", "H", "W"])
def test_compose_reference_parts(part):
    system = course_system()
    front = compose_node(system, part)
    assert {d.selection: d.quality for d in front} == expected_part_fronts()[part]


def test_compose_single_child_single_da():
    system = MorphSystem(
        root=MorphNode(
            "r",
            children=(MorphNode("p", alternatives=(DesignAlternative("d", 2),)),),
        ),
        compat={},
    )
    front = compose_node(system, "r")
    assert len(front) == 1
    assert front[0].quality == qv(3, 0, 1, 0)


def test_compose_guard(monkeypatch):
    system = course_system()  # node E: 4 parts x 4 alternatives = 256 combinations
    monkeypatch.setenv("HMMD_KIT_GUARD", "10")
    with pytest.raises(GuardExceeded, match=r"^256 combinations exceed guard 10$"):
        compose_node(system, "E")
    monkeypatch.setenv("HMMD_KIT_GUARD", "255")
    with pytest.raises(GuardExceeded, match=r"^256 combinations exceed guard 255$"):
        compose_node(system, "E")
    monkeypatch.setenv("HMMD_KIT_GUARD", "256")
    assert compose_node(system, "E")


def test_compose_excludes_zero_pairs_by_default():
    system = course_system()
    for d in compose_node(system, "E", allow_zero_w=True):
        pass  # zero-w compositions allowed here, just must not crash
    for d in compose_node(system, "E"):
        sel = dict(d.selection)
        for (ca, a), (cb, b) in itertools.combinations(d.selection, 2):
            assert system.compatibility("E", a, b) != 0


def random_flat_system(rng, max_parts=3, max_das=4):
    parts = rng.randint(2, max_parts)
    leafs = []
    for p in range(parts):
        das = tuple(
            DesignAlternative(f"p{p}d{i}", rng.randint(1, 3))
            for i in range(rng.randint(1, max_das))
        )
        leafs.append(MorphNode(f"p{p}", alternatives=das))
    compat = {}
    for i in range(parts):
        for j in range(i + 1, parts):
            for da_a in leafs[i].alternatives:
                for da_b in leafs[j].alternatives:
                    if rng.random() < 0.85:  # leave some pairs unconstrained
                        compat[("root", da_a.id, da_b.id)] = rng.randint(0, 3)
    return MorphSystem(root=MorphNode("root", children=tuple(leafs)), compat=compat)


def brute_force_front(system, node_id="root", allow_zero_w=False, pools=None, lookup=None):
    """Independent enumeration + dominance filter; pools default to the
    children's alternatives and lookup to system.compatibility."""
    node = system.node(node_id)
    if pools is None:
        pools = [[(c.id, da) for da in c.alternatives] for c in node.children]
    if lookup is None:
        lookup = lambda a, b: system.compatibility(node_id, a, b)
    hi = system.compat_scale.hi
    max_prio = max([hi] + [da.priority for pool in pools for _, da in pool])
    levels = max_prio - system.priority_scale.lo + 1
    all_decisions = []
    for combo in itertools.product(*pools):
        values = []
        zero = False
        for (ca, a), (cb, b) in itertools.combinations(combo, 2):
            v = lookup(a.id, b.id)
            if v is not None:
                values.append(v)
                zero = zero or v == 0
        if zero and not allow_zero_w:
            continue
        counts = [0] * levels
        for _, da in combo:
            counts[da.priority - system.priority_scale.lo] += 1
        q = QualityVector(min(values) if values else hi, tuple(counts))
        all_decisions.append(
            CompositeDecision(tuple((c, da.id) for c, da in combo), q)
        )
    return {
        d
        for d in all_decisions
        if not any(
            n_dominates(o.quality, d.quality) for o in all_decisions if o != d
        )
    }


def test_compose_equals_brute_force_on_random_systems():
    rng = random.Random(139)
    for _ in range(60):
        system = random_flat_system(rng)
        expected = brute_force_front(system)
        if not expected:
            with pytest.raises(ValidationError):
                synthesize_tree(system)
            continue
        got = compose_node(system, "root")
        assert set(got) == expected
        # flat system: full synthesis agrees with single-node composition
        assert set(synthesize_tree(system)) == expected


def test_quality_vector_equals_the_hand_built_composition():
    rng = random.Random(193)
    zero_pairs = 0
    for _ in range(60):
        system = random_flat_system(rng)
        children = system.node("root").children
        for combo in itertools.product(*(c.alternatives for c in children)):
            selection = {c.id: da.id for c, da in zip(children, combo)}
            q = quality_vector(system, "root", selection)
            assert q == reference_quality_vector(system, "root", selection)
            zero_pairs += q.w == 0
    assert zero_pairs > 0


def test_compose_part_counts_sum_to_children():
    rng = random.Random(149)
    for _ in range(20):
        system = random_flat_system(rng)
        front = brute_force_front(system)
        if not front:
            continue
        got = compose_node(system, "root")
        for d in got:
            assert d.quality.m == len(system.root.children)


def test_raising_offside_compat_keeps_composites_with_w_elsewhere():
    # raising the compatibility of one pair never evicts a Pareto composite
    # that contains the pair but whose worst value sits strictly elsewhere
    rng = random.Random(151)
    checked = 0
    for _ in range(40):
        system = random_flat_system(rng)
        front = compose_node(system, "root") if brute_force_front(system) else []
        raisable = [
            (key, v)
            for key, v in system.compat.items()
            if 1 <= v < system.compat_scale.hi
        ]
        if not front or not raisable:
            continue
        key, old = raisable[rng.randrange(len(raisable))]
        bumped = dict(system.compat)
        bumped[key] = old + 1
        system2 = MorphSystem(system.root, bumped)
        new_front = set(compose_node(system2, "root"))
        new_selections = {d.selection for d in new_front}
        _, da_a, da_b = key
        for d in front:
            das = {da for _, da in d.selection}
            if {da_a, da_b} <= das and d.quality.w < old:
                assert d.selection in new_selections
                checked += 1
    assert checked > 0


# ------------------------------------------ compose_node against the product loop

#: (compat scale, priority scale): the defaults, then scales with a negative
#: compatibility and priorities from 2, then compatibilities without a zero
SCALES = (
    (DEFAULT_COMPAT_SCALE, OrdinalScale(1, 3, Best.LOW)),
    (OrdinalScale(-2, 5, Best.HIGH), OrdinalScale(2, 4, Best.LOW)),
    (OrdinalScale(1, 4, Best.HIGH), OrdinalScale(0, 5, Best.LOW)),
)


def random_scaled_system(rng, two_level, scales=SCALES):
    """Root "r" over 1-4 children: leaves of 1-4 alternatives and, when
    ``two_level``, internal children of 1-3 leaves. Each pair of children of
    a node gets no table entries, a sparse table or a full one; root keys at
    internal children name their first two derived composites. The
    (compat, priority) scale pair is one of ``scales``."""
    compat_scale, prio_scale = rng.choice(scales)
    values = range(compat_scale.lo, compat_scale.hi + 1)
    compat = {}

    def leaf(nid):
        das = tuple(DesignAlternative(f"{nid}d{j}", rng.randint(prio_scale.lo, prio_scale.hi))
                    for j in range(rng.randint(1, 4)))
        return MorphNode(nid, alternatives=das)

    def table(nid, offers):
        for g1, g2 in itertools.combinations(offers, 2):
            density = rng.choice((0.0, 0.4, 1.0))
            for a, b in itertools.product(g1, g2):
                if rng.random() < density:
                    a, b = (a, b) if rng.random() < 0.7 else (b, a)
                    zero = 0 in values and rng.random() < 0.15
                    compat[nid, a, b] = 0 if zero else rng.choice(values)

    children = []
    for i in range(rng.randint(1, 4)):
        if two_level and rng.random() < 0.5:
            kids = tuple(leaf(f"c{i}q{k}") for k in range(rng.randint(1, 3)))
            table(f"c{i}", [[da.id for da in kid.alternatives] for kid in kids])
            children.append(MorphNode(f"c{i}", children=kids))
        else:
            children.append(leaf(f"p{i}"))
    table("r", [[da.id for da in c.alternatives] if c.is_leaf else [f"{c.id}_1", f"{c.id}_2"]
                for c in children])
    return MorphSystem(MorphNode("r", children=tuple(children)), compat, compat_scale, prio_scale)


def test_compose_node_equals_the_product_loop():
    rng = random.Random(233)
    seen = Counter()
    for _ in range(300):
        system = random_scaled_system(rng, two_level=False)
        node = system.node("r")
        lo, hi = system.priority_scale.lo, system.priority_scale.hi
        child_das = None
        if rng.random() < 0.4:  # supplied alternatives, priorities up to hi + 3
            child_das = {
                c.id: [DesignAlternative(da.id, rng.randint(lo, hi + 3)) for da in c.alternatives]
                + [DesignAlternative(f"{c.id}x", rng.randint(lo, hi + 3))] * rng.randint(0, 1)
                for c in node.children if rng.random() < 0.6
            }
            seen["above hi"] += any(da.priority > hi for das in child_das.values() for da in das)
        fronts = []
        for allow_zero_w in (False, True):
            got = compose_node(system, "r", child_das, allow_zero_w=allow_zero_w)
            assert got == reference_compose_node(system, "r", child_das, allow_zero_w=allow_zero_w)
            seen["empty" if not got else "several" if len(got) > 1 else "one"] += 1
            fronts.append(got)
        seen["zero pairs dropped"] += fronts[0] != fronts[1]
        pairs = itertools.combinations(node.children, 2)
        seen["pair without entries"] += any(
            not any(system.compatibility("r", a.id, b.id) is not None
                    for a, b in itertools.product(x.alternatives, y.alternatives))
            for x, y in pairs
        )
        seen["single child"] += len(node.children) == 1
        seen[f"scales {system.compat_scale.lo}, {lo}"] += 1
    assert len(seen) == 10 and min(seen.values()) >= 5, seen


def test_synthesis_and_trajectories_equal_the_product_loop(monkeypatch):
    from hmmdkit import morph, synth
    from hmmdkit.trajectory import Stage, TrajectorySpec, design_trajectory

    def both(run):
        """run() with compose_node, then with the product loop in its place:
        synth calls its own import of it, trajectory reads morph's"""
        outcomes = []
        for compose in (compose_node, reference_compose_node):
            monkeypatch.setattr(morph, "compose_node", compose)
            monkeypatch.setattr(synth, "compose_node", compose)
            try:
                outcomes.append(run())
            except ValidationError as exc:
                outcomes.append(str(exc))
        return outcomes

    rng = random.Random(239)
    seen = Counter()
    for _ in range(150):
        system = random_scaled_system(rng, two_level=True)
        got, want = both(lambda: synthesize_tree_trace(system))
        assert got == want
        seen["error" if isinstance(got, str) else "synthesized"] += 1
        if not isinstance(got, str):
            seen["two-level"] += any(not n.is_leaf for n in system.root.children)
    for _ in range(150):
        stages = tuple(
            Stage(s, tuple((f"s{s}d{j}", rng.randint(1, 5)) for j in range(rng.randint(1, 4))))
            for s in range(rng.randint(1, 4))
        )
        spec = TrajectorySpec(stages, {
            (a, b): rng.randint(0, 3)
            for s, t in itertools.combinations(stages, 2)
            for (a, _), (b, _) in itertools.product(s.decisions, t.decisions)
        })
        for all_pairs in (False, True):
            got, want = both(lambda: design_trajectory(spec, all_pairs))
            assert got == want
            seen["all pairs" if all_pairs else "chain"] += isinstance(got, list) and len(got) > 1
    assert seen["synthesized"] >= 50 and seen["error"] >= 5 and seen["two-level"] >= 20, seen
    assert seen["chain"] > 50 and seen["all pairs"] > 50, seen


def leaves_reversed(system):
    """``system`` with every leaf listing its alternatives in reverse order."""
    def flip(node):
        if node.is_leaf:
            return MorphNode(node.id, alternatives=node.alternatives[::-1])
        return MorphNode(node.id, children=tuple(map(flip, node.children)))

    return MorphSystem(flip(system.root), system.compat, system.compat_scale, system.priority_scale)


def report_priorities(system):
    """node id -> the priority of each composite in the synth report."""
    solution, _ = report_synth(MorphProblem(system), "synthesis", None, False)
    return {node["id"]: tuple(c["priority"] for c in node["composites"]) for node in solution["nodes"]}


def test_synthesis_passes_each_front_up_at_the_scale_lo():
    # each node's decisions are one front: the peel synthesis ran over them
    # finds a single layer, and they come in the canonical order, whatever
    # order the leaves list their alternatives in
    rng = random.Random(239)
    scales = [(c, OrdinalScale(lo, lo + 2, Best.LOW)) for c, _ in SCALES for lo in (1, 2, 3)]
    seen = Counter()
    for _ in range(150):
        system = random_scaled_system(rng, two_level=True, scales=scales)
        try:
            trace = synthesize_tree_trace(system)
        except ValidationError:
            continue
        assert synthesize_tree_trace(leaves_reversed(system)) == trace
        lo = system.priority_scale.lo
        priorities = report_priorities(system)
        for rec in trace.nodes.values():
            n = len(rec.decisions)
            assert set(priorities_from_quality(rec.decisions).values()) == {1}
            assert priorities[rec.node_id] == (lo,) * n
            assert list(rec.decisions) == _canonical_sort(rec.decisions)
            # a derived composite counts at level lo in its parent's vector
            node = system.node(rec.node_id)
            prio = {(c.id, da.id): da.priority for c in node.children for da in c.alternatives}
            for d in rec.decisions:
                levels = Counter(prio.get(part, lo) - lo for part in d.selection)
                assert d.quality.counts == tuple(levels[k] for k in range(len(d.quality.counts)))
            seen[f"lo {lo}"] += 1
            seen["several"] += n > 1
            seen["derived"] += any(not c.is_leaf for c in node.children)
    assert len(seen) == 5 and min(seen.values()) >= 10, seen


def test_derived_priorities_count_from_the_scale_lo(tmp_path, capsys):
    # with priority_scale [2, 4], a derived composite's layer 1 is level 2,
    # the best: m_1 used to carry priority 1 and count at the worst level
    m = MorphNode("m", children=(
        MorphNode("a", alternatives=(DesignAlternative("a1", 2), DesignAlternative("a2", 3))),
        MorphNode("b", alternatives=(DesignAlternative("b1", 2), DesignAlternative("b2", 4))),
    ))
    c = MorphNode("c", alternatives=(DesignAlternative("c1", 2), DesignAlternative("c2", 4)))
    system = MorphSystem(MorphNode("r", children=(m, c)), {},
                         priority_scale=OrdinalScale(2, 4, Best.LOW))
    trace = synthesize_tree_trace(system)
    assert report_priorities(system) == {"m": (2,), "r": (2,)}
    assert [d.quality for d in trace.root.decisions] == [qv(3, 2, 0, 0)]
    path = tmp_path / "r.morph"
    path.write_text(write_problem(ProblemFile(SPEC_VERSION, "morph", MorphProblem(system))))
    assert main(["synth", "--input", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  r_1: m=m_1, c=c1; N(S) = (3; 2, 0, 0); priority 2"
    )


@pytest.mark.parametrize("priority", [0, -5])
def test_compose_rejects_priorities_below_the_scale(priority):
    # 0 used to count silently at the worst level and -5 raised IndexError
    system = course_system()
    das = [DesignAlternative("L1", 1), DesignAlternative("Lx", priority)]
    message = f"child 'L': alternative 'Lx' has priority {priority} below 1"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        compose_node(system, "E", {"L": das})


def test_guard_counts_the_full_product_though_zero_pairs_prune(monkeypatch):
    # every pair is zero, so no prefix longer than one part is walked
    parts = tuple(
        MorphNode(f"p{i}", alternatives=tuple(DesignAlternative(f"p{i}d{j}", 1) for j in range(3)))
        for i in range(3)
    )
    compat = {
        ("r", a.id, b.id): 0
        for x, y in itertools.combinations(parts, 2)
        for a, b in itertools.product(x.alternatives, y.alternatives)
    }
    system = MorphSystem(MorphNode("r", children=parts), compat)
    monkeypatch.setenv("HMMD_KIT_GUARD", "26")
    with pytest.raises(GuardExceeded, match=r"^27 combinations exceed guard 26$"):
        compose_node(system, "r")
    monkeypatch.setenv("HMMD_KIT_GUARD", "27")
    assert compose_node(system, "r") == []
    assert len(compose_node(system, "r", allow_zero_w=True)) == 27


# ------------------------------------------------------------ synthesize_tree


def test_full_synthesis_of_reference_system():
    system = course_system()
    trace = synthesize_tree_trace(system)
    root = trace.root
    assert len(root.decisions) == 4
    e_front = {d.selection for d in trace.nodes["E"].decisions}
    h_ids = trace.nodes["H"].composite_ids
    assert len(h_ids) == 2
    # the root keeps the full product of the three subsystem fronts
    selections = [dict(d.selection) for d in root.decisions]
    e_choices = {s["E"] for s in selections}
    h_choices = {s["H"] for s in selections}
    w_choices = {s["W"] for s in selections}
    assert e_choices == set(trace.nodes["E"].composite_ids)
    assert h_choices == set(h_ids)
    assert w_choices == set(trace.nodes["W"].composite_ids)
    for d in root.decisions:
        assert d.quality == qv(3, 3, 0, 0)
    # leaf expansions recover complete leaf-level selections
    for leaves in root.leaf_selections:
        assert {part for part, _ in leaves} == {
            "L", "M", "F", "G", "D", "O", "B", "P", "I", "C",
        }


def test_synthesis_priorities_of_subsystem_composites_are_all_best():
    priorities = report_priorities(course_system())
    for part in ("E", "H", "W"):
        assert set(priorities[part]) == {1}


def test_priorities_from_quality_examples():
    def dec(q):
        return CompositeDecision((("p", f"x{id(q)}"),), q)

    a, b = CompositeDecision((("p", "a"),), qv(3, 1, 0)), CompositeDecision(
        (("p", "b"),), qv(1, 0, 1)
    )
    out = priorities_from_quality([a, b])
    assert out[a] == 1 and out[b] == 2

    chain = [
        CompositeDecision((("p", "a"),), qv(3, 1, 0, 0)),
        CompositeDecision((("p", "b"),), qv(2, 1, 0, 0)),
        CompositeDecision((("p", "c"),), qv(1, 0, 1, 0)),
    ]
    out = priorities_from_quality(chain)
    assert [out[d] for d in chain] == [1, 2, 3]

    trio = [
        CompositeDecision((("p", "a"),), qv(3, 2, 1, 0)),
        CompositeDecision((("p", "b"),), qv(2, 3, 0, 0)),
        CompositeDecision((("p", "c"),), qv(2, 2, 1, 0)),
    ]
    out = priorities_from_quality(trio)
    assert [out[d] for d in trio] == [1, 1, 2]

    incomparable = [
        CompositeDecision((("p", "a"),), qv(1, 2, 1, 0)),
        CompositeDecision((("p", "b"),), qv(3, 1, 0, 2)),
    ]
    out = priorities_from_quality(incomparable)
    assert set(out.values()) == {1}

    with pytest.raises(ValidationError):
        priorities_from_quality(
            [CompositeDecision((("p", "a"),), qv(1, 1)), CompositeDecision((("p", "b"),), qv(1, 1, 1))]
        )


def test_a_2000_level_chain_constructs_and_synthesizes():
    # construction walks the tree and synthesis visits it bottom-up, both
    # without recursion, so depth meets no recursion limit
    node = MorphNode("bottom", alternatives=(DesignAlternative("a", 1), DesignAlternative("b", 2)))
    for i in reversed(range(2000)):
        node = MorphNode(f"n{i}", (node, MorphNode(f"l{i}", alternatives=(DesignAlternative("x", 2),))))
    system = MorphSystem(node, {})
    assert sum(1 for _ in walk(system.root)) == 4001
    trace = synthesize_tree_trace(system)
    assert len(trace.nodes) == 2000
    assert [d.selection for d in trace.root.decisions] == [(("n1", "n1_1"), ("l0", "x"))]
    assert trace.root.leaf_selections[0][0] == ("bottom", "a")
    assert len(trace.root.leaf_selections[0]) == 2001


def test_synthesis_leaves_no_cyclic_garbage():
    # compose_node's walk calls itself through its closure cell, and so did
    # assign's enumeration; a cycle left behind holds the enumeration's work
    # tables until the collector runs, which a CLI run may never do
    from conftest import table5_assignment_instance
    from hmmdkit.assign import assign_pareto
    from hmmdkit.trajectory import design_trajectory
    from test_frameworks import random_trajectory_spec

    rng = random.Random(257)
    systems = [course_system()]
    while len(systems) < 40:
        with contextlib.suppress(ValidationError):
            systems.append(MorphSystem(*random_two_level_system(rng)))
    flat = [random_flat_system(rng, max_parts=4, max_das=5) for _ in range(40)]
    specs = [random_trajectory_spec(rng, all_pairs=k % 2 == 1) for k in range(40)]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for system in flat:
            compose_node(system, "root", allow_zero_w=rng.random() < 0.5)
            assert gc.collect() == 0, "compose_node"
        for system in systems:
            with contextlib.suppress(ValidationError):  # every composition infeasible
                synthesize_tree_trace(system)
            assert gc.collect() == 0, "synthesize_tree_trace"
        for k, spec in enumerate(specs):
            design_trajectory(spec, all_pairs=k % 2 == 1)
            assert gc.collect() == 0, "design_trajectory"
        assign_pareto(table5_assignment_instance())
        assert gc.collect() == 0, "assign_pareto"
    finally:
        if enabled:
            gc.enable()
