"""Bottom-up ordinal evaluation of an integration tree through total
lookup tables: the owner of the integrate problem type.

Each internal node maps the tuple of its children's estimates to its own
estimate through a table that must cover every tuple of the children's
scales; leaves carry their estimates.
"""

from __future__ import annotations

import itertools

from .core import Best, OracleError, OrdinalScale, ValidationError, frozen


@frozen
class IntegrationNode:
    id: str
    scale: OrdinalScale
    children: tuple["IntegrationNode", ...] = ()
    table: dict[tuple[int, ...], int] | None = None
    estimate: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if self.children:
            if self.table is None:
                raise ValidationError(f"internal node {self.id!r} needs a table")
            if self.estimate is not None:
                raise ValidationError(f"internal node {self.id!r} must not carry an estimate")
            object.__setattr__(
                self, "table", {tuple(k): v for k, v in self.table.items()}
            )
            for key, v in self.table.items():
                if len(key) != len(self.children):
                    raise ValidationError(
                        f"node {self.id!r}: table tuple {key} has wrong arity"
                    )
                if not self.scale.contains(v):
                    raise ValidationError(
                        f"node {self.id!r}: table output {v} out of scale"
                    )
        else:
            if self.estimate is None:
                raise ValidationError(f"leaf {self.id!r} needs an estimate")
            if self.table is not None:
                raise ValidationError(f"leaf {self.id!r} must not carry a table")
            if not self.scale.contains(self.estimate):
                raise ValidationError(
                    f"leaf {self.id!r}: estimate {self.estimate} outside "
                    f"[{self.scale.lo}, {self.scale.hi}]"
                )


@frozen
class IntegrationResult:
    root_estimate: int
    trace: dict[str, int]


def _preorder(tree: IntegrationNode) -> list[IntegrationNode]:
    """The tree's nodes in pre-order; a repeated node id is an error."""
    nodes: list[IntegrationNode] = []
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node.id in seen:
            raise ValidationError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        nodes.append(node)
        stack.extend(reversed(node.children))
    return nodes


def evaluate_integration_tree(tree: IntegrationNode) -> IntegrationResult:
    """Bottom-up table lookups; the trace records every node's estimate."""
    trace: dict[str, int] = {}
    for node in reversed(_preorder(tree)):  # every node after its descendants
        if not node.children:
            trace[node.id] = node.estimate
            continue
        inputs = tuple(trace[c.id] for c in node.children)
        if inputs not in node.table:
            raise ValidationError(
                f"node {node.id!r}: no table entry for child estimates {inputs}"
            )
        trace[node.id] = node.table[inputs]
    return IntegrationResult(root_estimate=trace[tree.id], trace=trace)


def check_tables_total(tree: IntegrationNode) -> None:
    """Verify node ids are unique, then that each internal table covers the
    full product of child scales, node by node in pre-order."""
    for node in _preorder(tree):
        if not node.children:
            continue
        ranges = [range(c.scale.lo, c.scale.hi + 1) for c in node.children]
        for key in itertools.product(*ranges):
            if key not in node.table:
                raise ValidationError(
                    f"node {node.id!r}: table misses child estimates {key}"
                )


# ----------------------------------------------- report and file format


@frozen
class IntegrateProblem:
    tree: IntegrationNode


def report_integrate(problem, method, weights, oracle):
    """``hmmdkit integrate``: the oracle checks the trace's root entry."""
    result = evaluate_integration_tree(problem.tree)
    solution = {
        "root_estimate": result.root_estimate,
        "trace": dict(sorted(result.trace.items())),
    }
    diagnostics = {}
    if oracle:
        if result.trace[problem.tree.id] != result.root_estimate:
            raise OracleError("trace root disagrees with estimate")
        diagnostics["oracle"] = "ok (trace consistent)"
    return solution, diagnostics


def codecs() -> tuple:
    """The integrate file's payload codec, its report's solution codec and
    the body lines of its text report (``probio.OWNERS``)."""
    from .probio import INT, STR, List, Map, Record, Ref, Table, doc, scale, wrap

    def build(path: str, tree: IntegrationNode) -> IntegrateProblem:
        with wrap(f"{path}.tree"):
            check_tables_total(tree)
        return IntegrateProblem(tree)

    node = Ref()
    node.target = Record(
        ("id", STR, "id"),
        ("scale", scale(Best.HIGH), "scale"),
        ("children", List(node, 1), lambda n: n.children or None, ()),
        ("table", Table(("inputs", List(INT)), ("output", INT), min_len=1), "table", None),
        ("estimate", INT, "estimate", None),
        build=IntegrationNode,
    )
    payload = Record(("tree", node, "tree"), build=build, with_path=True)

    def text(sol: dict) -> list[str]:
        lines = [f"root estimate: {sol['root_estimate']}"]
        for nid, est in sorted(sol["trace"].items()):
            lines.append(f"  {nid}: {est}")
        return lines

    return payload, doc(("root_estimate", INT), ("trace", Map(INT))), text
