"""Shared fixture data for the worked examples used across test modules.

The compatibility tables and the student/work correspondence matrix are
transcribed here once; the shipped fixture files carry an independent
transcription, and test_probio cross-checks the two.
"""

L = ["L1", "L2", "L3", "L4"]
M = ["M1", "M2", "M3", "M4"]
F = ["F1", "F2", "F3", "F4"]
G = ["G1", "G2", "G3", "G4"]
D = ["D1", "D2", "D3", "D4"]
O = ["O1", "O2", "O3", "O4"]
B = ["B1", "B2", "B3", "B4"]
P = ["P1", "P2", "P3", "P4"]
I = ["I1", "I2", "I3", "I4"]
C = ["C1", "C2", "C3", "C4"]


def _block(rows, row_ids, col_ids):
    return {
        (rid, cid): v
        for rid, row in zip(row_ids, rows)
        for cid, v in zip(col_ids, row)
    }


TABLE_SYSTEMS = {}
TABLE_SYSTEMS.update(_block([[1, 2, 0, 0], [1, 2, 1, 1], [0, 3, 3, 3], [0, 3, 3, 3]], L, M))
TABLE_SYSTEMS.update(_block([[1, 2, 0, 0], [1, 2, 2, 1], [0, 3, 3, 3], [0, 3, 3, 3]], L, F))
TABLE_SYSTEMS.update(_block([[1, 1, 1, 1], [1, 1, 2, 2], [1, 2, 3, 3], [1, 2, 3, 3]], L, G))
TABLE_SYSTEMS.update(_block([[1, 2, 0, 0], [1, 2, 2, 0], [0, 3, 3, 3], [0, 3, 3, 3]], M, F))
TABLE_SYSTEMS.update(_block([[1, 2, 0, 0], [1, 2, 3, 3], [0, 3, 3, 3], [0, 3, 3, 3]], M, G))
TABLE_SYSTEMS.update(_block([[1, 1, 0, 0], [1, 2, 3, 3], [0, 2, 3, 3], [0, 2, 3, 3]], F, G))

TABLE_DECISION = {}
TABLE_DECISION.update(_block([[1, 2, 0, 0], [2, 3, 3, 3], [0, 3, 3, 3], [0, 3, 3, 3]], D, O))
TABLE_DECISION.update(_block([[1, 1, 0, 0], [2, 2, 2, 2], [2, 3, 3, 3], [2, 3, 3, 3]], D, B))
TABLE_DECISION.update(_block([[1, 1, 0, 0], [1, 2, 2, 2], [0, 2, 3, 3], [0, 2, 3, 3]], O, B))

TABLE_MORPH = {}
TABLE_MORPH.update(_block([[1, 1, 0, 0], [1, 1, 2, 2], [2, 3, 3, 3], [2, 3, 3, 3]], P, I))
TABLE_MORPH.update(_block([[1, 2, 0, 0], [2, 3, 3, 3], [0, 3, 3, 3], [0, 3, 3, 3]], P, C))
TABLE_MORPH.update(_block([[3, 3, 3, 2], [3, 3, 3, 3], [3, 3, 3, 3], [2, 3, 3, 3]], I, C))

#: priority fixture consistent with the expected per-part quality vectors
COURSE_PRIORITIES = {da: 3 for da in L + M + F + G + D + O + B + P + I + C}
COURSE_PRIORITIES.update({"L2": 1, "M2": 1, "F2": 1, "G3": 1, "L3": 2, "M3": 2})
COURSE_PRIORITIES.update({"D3": 1, "O3": 1, "B3": 1, "B4": 1})
COURSE_PRIORITIES.update({"P4": 1, "I3": 1, "C3": 1})

STUDENTS = ["A1", "A2", "A3", "A4", "A5"]
WORKS = ["V1", "V6", "V10", "V12"]

#: (theoretical level, engineering experience, research experience) per cell
CORRESPONDENCE = {
    "A1": [(2, 2, 1), (2, 4, 6), (2, 2, 2), (4, 2, 3)],
    "A2": [(2, 1, 1), (2, 1, 2), (2, 3, 7), (2, 4, 2)],
    "A3": [(2, 3, 1), (2, 2, 2), (2, 2, 2), (4, 1, 6)],
    "A4": [(1, 2, 1), (2, 3, 2), (2, 1, 2), (2, 2, 6)],
    "A5": [(1, 7, 2), (2, 2, 1), (1, 1, 1), (1, 3, 1)],
}

ASSIGNED_PAIRS = [("A1", "V6"), ("A2", "V10"), ("A3", "V12"), ("A5", "V1")]

TEACHING_COSTS = {"T1": 2, "T2": 3, "T3": 4}


def replace(record, **changes):
    """A copy of a frozen hmmdkit record with some fields changed.

    The copy is rebuilt through the constructor from ``__match_args__``, so
    ``__post_init__`` runs again, as it does with ``dataclasses.replace``.
    """
    fields = {name: changes.pop(name, getattr(record, name)) for name in record.__match_args__}
    return type(record)(**fields, **changes)


# The direction branches that criteria.oriented replaced, kept as they were
# written so that the tests comparing against them stay independent of it.


def oracle_normalize_estimates(frame, rows):
    """Min-max rescale each criterion over the rows to [0, 1]: (x - lo) /
    (hi - lo) when maximized, (hi - x) / (hi - lo) when minimized, and 1/2
    on a constant column."""
    from fractions import Fraction

    from hmmdkit.core import EstimateVector
    from hmmdkit.criteria import Direction, check_rows

    check_rows(frame, rows)
    cols = list(zip(*(row.values for row in rows)))
    out_cols = []
    for k, c in enumerate(frame.criteria):
        lo, hi = min(cols[k]), max(cols[k])
        if lo == hi:
            out_cols.append([Fraction(1, 2)] * len(rows))
        elif c.direction is Direction.MAXIMIZE:
            out_cols.append([(v - lo) / (hi - lo) for v in cols[k]])
        else:
            out_cols.append([(hi - v) / (hi - lo) for v in cols[k]])
    return [EstimateVector(vals) for vals in zip(*out_cols)]


def oracle_adjusted(frame, vec):
    """The larger-is-better view of an objective sum: minimized criteria flipped."""
    from hmmdkit.criteria import Direction

    return tuple(v if c.direction is Direction.MAXIMIZE else -v for v, c in zip(vec, frame.criteria))


def pair_triple(student, work):
    return CORRESPONDENCE[student][WORKS.index(work)]


def level_value(student, work, level):
    """Fixture scalar value: sum of the pair's triple times the level index."""
    j = int(level[1])
    return sum(pair_triple(student, work)) * j


def course_system():
    """The three-subsystem course model with the documented priority fixture."""
    from hmmdkit.core import EstimateVector
    from hmmdkit.morph import DesignAlternative, MorphNode, MorphSystem

    def leaf(nid, das):
        return MorphNode(
            nid,
            alternatives=tuple(
                DesignAlternative(d, COURSE_PRIORITIES[d]) for d in das
            ),
        )

    root = MorphNode(
        "S",
        children=(
            MorphNode("E", children=(leaf("L", L), leaf("M", M), leaf("F", F), leaf("G", G))),
            MorphNode("H", children=(leaf("D", D), leaf("O", O), leaf("B", B))),
            MorphNode("W", children=(leaf("P", P), leaf("I", I), leaf("C", C))),
        ),
    )
    compat = {}
    for (a, b), v in TABLE_SYSTEMS.items():
        compat[("E", a, b)] = v
    for (a, b), v in TABLE_DECISION.items():
        compat[("H", a, b)] = v
    for (a, b), v in TABLE_MORPH.items():
        compat[("W", a, b)] = v
    return MorphSystem(root=root, compat=compat)


def table5_assignment_instance():
    from hmmdkit.assign import AssignmentInstance
    from hmmdkit.core import EstimateVector
    from hmmdkit.criteria import equal_weight_frame

    return AssignmentInstance(
        agents=tuple(STUDENTS),
        positions=tuple(WORKS),
        cells=tuple(
            tuple(EstimateVector(t) for t in CORRESPONDENCE[s]) for s in STUDENTS
        ),
        frame=equal_weight_frame(3),
    )


def table5_mckp_instance(budget):
    from hmmdkit.core import EstimateVector
    from hmmdkit.criteria import equal_weight_frame
    from hmmdkit.select import Group, Item, MckpInstance

    groups = []
    for s, w in ASSIGNED_PAIRS:
        gid = f"{s}{w}"
        items = tuple(
            Item(f"{gid}:{t}", EstimateVector([level_value(s, w, t)]), cost)
            for t, cost in TEACHING_COSTS.items()
        )
        groups.append(Group(gid, items))
    return MckpInstance(
        frame=equal_weight_frame(1), groups=tuple(groups), budget=budget
    )
