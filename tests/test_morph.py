import itertools
import json
import random
import re
from collections import Counter

import pytest

from conftest import course_system
from hmmdkit.cli import main
from hmmdkit.core import DEFAULT_COMPAT_SCALE, GuardExceeded, ValidationError
from hmmdkit.morph import (
    CompositeDecision,
    DesignAlternative,
    MorphNode,
    MorphSystem,
    QualityVector,
    _quality,
    compose_node,
    n_dominates,
    priorities_from_quality,
    quality_vector,
    synthesize_tree,
    synthesize_tree_trace,
    walk,
)
from hmmdkit.probio import SPEC_VERSION, MorphProblem, ProblemFile, write_problem


def qv(w, *counts):
    return QualityVector(w, tuple(counts))


# ------------------------------------------------------------- quality_vector


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


def test_da_priority_must_sit_inside_the_scale():
    leafs = (
        MorphNode("p0", alternatives=(DesignAlternative("a", 4),)),
        MorphNode("p1", alternatives=(DesignAlternative("b", 1),)),
    )
    with pytest.raises(ValidationError, match="priority 4 outside"):
        MorphSystem(MorphNode("root", children=leafs), {})


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
        not (d.selection_map["E"] == "E_1" and d.selection_map["H"] == "H_1")
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
        sel = d.selection_map
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
    selections = [d.selection_map for d in root.decisions]
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
    trace = synthesize_tree_trace(course_system())
    for part in ("E", "H", "W"):
        assert set(trace.nodes[part].priorities) == {1}


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
