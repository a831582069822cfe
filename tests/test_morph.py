import itertools
import random

import pytest

from conftest import course_system
from hmmdkit.core import GuardExceeded, ValidationError
from hmmdkit.morph import (
    CompositeDecision,
    DesignAlternative,
    MorphNode,
    MorphSystem,
    QualityVector,
    compose_node,
    n_dominates,
    priorities_from_quality,
    quality_vector,
    synthesize_tree,
    synthesize_tree_trace,
)


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


def test_compat_table_validation():
    leafs = (
        MorphNode("p0", alternatives=(DesignAlternative("a1", 1), DesignAlternative("a2", 2))),
        MorphNode("p1", alternatives=(DesignAlternative("b1", 1),)),
    )
    root = MorphNode("root", children=leafs)
    # unknown alternative referenced by a table
    with pytest.raises(ValidationError, match="ghost"):
        MorphSystem(root, {("root", "a1", "ghost"): 2})
    # both alternatives belong to the same child
    with pytest.raises(ValidationError, match="same child"):
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
    "left, right",
    [("typo", "also_typo"), ("E_1", "ghost"), ("E_1", "E_2"), ("E_9", "H_1")],
)
def test_unmatched_compat_key_at_internal_child_node_rejected(left, right):
    # "S" has internal children, so its keys can only be checked once
    # synthesis has named the derived composites E_k and H_k
    base = course_system()
    compat = dict(base.compat)
    compat[("S", left, right)] = 0
    system = MorphSystem(base.root, compat)
    with pytest.raises(ValidationError, match=rf"'S'.*'{left}', '{right}'"):
        synthesize_tree(system)


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
    system = course_system()
    monkeypatch.setenv("HMMD_KIT_GUARD", "10")
    with pytest.raises(GuardExceeded):
        compose_node(system, "E")


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


def brute_force_front(system, node_id="root", allow_zero_w=False):
    """Independent enumeration + dominance filter."""
    node = system.node(node_id)
    pools = [[(c.id, da) for da in c.alternatives] for c in node.children]
    hi = system.compat_scale.hi
    max_prio = max(
        [hi]
        + [da.priority for c in node.children for da in c.alternatives]
    )
    levels = max_prio - system.priority_scale.lo + 1
    all_decisions = []
    for combo in itertools.product(*pools):
        values = []
        zero = False
        for (ca, a), (cb, b) in itertools.combinations(combo, 2):
            v = system.compatibility(node_id, a.id, b.id)
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
