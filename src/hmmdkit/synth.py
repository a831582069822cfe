"""Bottom-up morphological synthesis: the owner of the morph problem type.

synthesize_tree_trace composes every internal node of a system, leaves
first (``morph.compose_node``), and hands each node's front upward as
derived alternatives; the module also holds the synth report and the
morph file's shapes. A trajectory run, which composes one node with
``morph`` alone, never loads it.
"""

from __future__ import annotations

from .core import DEFAULT_COMPAT_SCALE, DEFAULT_PRIORITY_SCALE, Best, OracleError, ValidationError, frozen
from .morph import (
    CompositeDecision,
    DesignAlternative,
    MorphNode,
    MorphSystem,
    _check_pairs,
    compose_node,
    quality_codecs,
    quality_payload,
)


@frozen
class MorphProblem:
    system: MorphSystem


@frozen
class NodeSynthesis:
    """Per-node record of a bottom-up synthesis run."""

    node_id: str
    decisions: tuple[CompositeDecision, ...]
    composite_ids: tuple[str, ...]  # one derived id per decision
    leaf_selections: tuple[tuple[tuple[str, str], ...], ...]


@frozen
class SynthesisTrace:
    nodes: dict[str, NodeSynthesis]
    root_id: str

    @property
    def root(self) -> NodeSynthesis:
        return self.nodes[self.root_id]


def synthesize_tree_trace(system: MorphSystem) -> SynthesisTrace:
    """Bottom-up synthesis keeping every internal node's Pareto record."""
    if system.root.is_leaf:
        raise ValidationError("the root must be an internal node")
    # the internal nodes in pre-order with children right to left, so that
    # reversed, children come left to right and each before its parent
    internal, stack = [], [system.root]
    while stack:
        node = stack.pop()
        if node.children:
            internal.append(node)
            stack.extend(node.children)
    records: dict[str, NodeSynthesis] = {}
    # (internal node id, composite id) -> its leaf parts; a leaf's (node id,
    # alternative id) is not a key and stands for itself
    leaves: dict[tuple[str, str], tuple] = {}
    # a node passes up its front, one dominance layer, so each composite gets the best level
    lo = system.priority_scale.lo
    for node in reversed(internal):
        child_das = {
            c.id: c.alternatives if c.is_leaf else [DesignAlternative(cid, lo) for cid in records[c.id].composite_ids]
            for c in node.children
        }
        if not all(child.is_leaf for child in node.children):
            _check_pairs(node.id, child_das, system._pairs[node.id])
        decisions = compose_node(system, node.id, child_das)
        if not decisions:
            raise ValidationError(
                f"node {node.id!r}: every composition contains an infeasible pair"
            )
        ids = tuple(f"{node.id}_{k + 1}" for k in range(len(decisions)))
        expansions = tuple(tuple(part for sel in d.selection for part in leaves.get(sel, (sel,))) for d in decisions)
        leaves.update(((node.id, cid), parts) for cid, parts in zip(ids, expansions))
        records[node.id] = NodeSynthesis(
            node_id=node.id,
            decisions=tuple(decisions),
            composite_ids=ids,
            leaf_selections=expansions,
        )
    return SynthesisTrace(nodes=records, root_id=system.root.id)


def synthesize_tree(system: MorphSystem) -> list[CompositeDecision]:
    """Pareto-efficient composite decisions for the root node."""
    return list(synthesize_tree_trace(system).root.decisions)


# ------------------------------------------------ report and file format


def report_synth(problem, method, weights, oracle):
    """``hmmdkit synth``: the oracle checks that every composite's level
    counts sum to its node's part count."""
    trace = synthesize_tree_trace(problem.system)
    # every composite sits on its node's front, one dominance layer
    priority = problem.system.priority_scale.lo
    nodes = []
    for nid in sorted(trace.nodes):
        rec = trace.nodes[nid]
        nodes.append(
            {
                "id": nid,
                "composites": [
                    {
                        "id": cid,
                        "selection": d.selection,
                        "leaves": leaves,
                        "quality": quality_payload(d.quality),
                        "priority": priority,
                    }
                    for cid, d, leaves in zip(rec.composite_ids, rec.decisions, rec.leaf_selections)
                ],
            }
        )
    solution = {"root": trace.root_id, "nodes": nodes}
    diagnostics = {}
    if oracle:
        for rec in trace.nodes.values():
            parts = len(problem.system.node(rec.node_id).children)
            for d in rec.decisions:
                if d.quality.m != parts:
                    raise OracleError(f"node {rec.node_id}: level counts do not sum to parts")
        diagnostics["oracle"] = "ok (level counts consistent)"
    return solution, diagnostics


def codecs() -> tuple:
    """The morph file's payload codec, its report's solution codec and the
    body lines of its text report (``probio.OWNERS``)."""
    from .probio import INT, PAIRS, STR, VECTOR, List, Record, Ref, Table, array, doc, scale

    alternative = Record(
        ("id", STR, "id"),
        ("priority", INT, "priority"),
        ("estimates", VECTOR, "estimates", None),
        build=DesignAlternative,
    )
    node = Ref()
    node.target = Record(
        ("id", STR, "id"),
        ("children", List(node, 1), lambda n: n.children or None, ()),
        ("alternatives", List(alternative, 1), lambda n: n.alternatives or None, ()),
        build=MorphNode,
    )
    payload = Record(
        ("tree", node, "system.root"),
        ("compat", Table(("node", STR), ("left", STR), ("right", STR), ("value", INT)), "system.compat"),
        ("compat_scale", scale(Best.HIGH), "system.compat_scale", DEFAULT_COMPAT_SCALE),
        ("priority_scale", scale(Best.LOW), "system.priority_scale", DEFAULT_PRIORITY_SCALE),
        build=lambda *args: MorphProblem(MorphSystem(*args)),
    )
    quality, quality_line = quality_codecs()
    solution = doc(
        ("root", STR),
        ("nodes", array(doc(("id", STR), ("composites", array(doc(
            ("id", STR), ("selection", PAIRS), ("leaves", PAIRS), ("quality", quality), ("priority", INT),
        )))))),
    )

    def text(sol: dict) -> list[str]:
        lines = []
        for node in sol["nodes"]:
            lines.append(f"node {node['id']}:")
            for comp in node["composites"]:
                sel = ", ".join(f"{part}={da}" for part, da in comp["selection"])
                lines.append(
                    f"  {comp['id']}: {sel}; {quality_line(comp['quality'])}; "
                    f"priority {comp['priority']}"
                )
        return lines

    return payload, solution, text
