import json
import math
import random
import sys
from fractions import Fraction

import pytest

import conftest as data
from hmmdkit.core import ValidationError
from hmmdkit.morph import DesignAlternative, MorphNode, MorphSystem, QualityVector, n_dominates
from hmmdkit.probio import (
    INT,
    Leaf,
    List,
    ParseError,
    ProblemFile,
    Record,
    ResultFile,
    ResultFormat,
    _envelope,
    fail,
    fixture_path,
    load_fixture,
    parse_problem,
    parse_result,
    write_problem,
    write_result,
)
from hmmdkit.synth import MorphProblem

FIXTURES = [
    "course_example.morph",
    "table5_assign.assign",
    "table5_mckp.mckp",
    "student_strategy.morph",
]


def minimal_rank_text():
    return json.dumps(
        {
            "spec_version": 1,
            "problem_type": "rank",
            "payload": {
                "criteria": [{"id": "c1"}],
                "alternatives": [{"id": "a", "estimates": [1]}],
            },
        }
    )


def test_minimal_rank_file_parses():
    pf = parse_problem(minimal_rank_text())
    assert pf.problem_type == "rank"
    assert pf.payload.instance.ids == ["a"]
    assert pf.payload.p == Fraction(3, 5)


def test_unknown_problem_type():
    text = json.dumps({"spec_version": 1, "problem_type": "qap", "payload": {}})
    with pytest.raises(ParseError, match="qap"):
        parse_problem(text)


def test_unsupported_version_and_malformed_json():
    with pytest.raises(ParseError, match="version"):
        parse_problem(json.dumps({"spec_version": 2, "problem_type": "rank", "payload": {}}))
    with pytest.raises(ParseError, match="malformed"):
        parse_problem("{nope")


def test_strict_mode_rejects_unknown_keys():
    doc = json.loads(minimal_rank_text())
    doc["payload"]["surprise"] = 1
    with pytest.raises(ParseError, match="surprise"):
        parse_problem(json.dumps(doc))


def test_errors_name_the_offending_path():
    doc = {
        "spec_version": 1,
        "problem_type": "cluster",
        "payload": {"ids": ["a", "b"], "matrix": [[0, 1], [2, 0]]},
    }
    with pytest.raises(ParseError, match=r"\$\.payload\.matrix"):
        parse_problem(json.dumps(doc))
    doc2 = {
        "spec_version": 1,
        "problem_type": "rank",
        "payload": {
            "criteria": [{"id": "c1"}],
            "alternatives": [{"id": "a", "estimates": [1, "x"]}],
        },
    }
    with pytest.raises(ParseError, match=r"estimates\[1\]"):
        parse_problem(json.dumps(doc2))


@pytest.mark.parametrize("bad", ["\ud800", "a\udfffb", "\udc80\u00e9"])
def test_ids_that_are_not_utf8_text_are_rejected_at_their_path(bad):
    # json.loads reads a lone surrogate escape into a str that no text
    # report could write; any other non-ASCII id stays valid
    doc = json.loads(minimal_rank_text())
    doc["payload"]["alternatives"][0]["id"] = bad
    with pytest.raises(ParseError, match=r"^\$\.payload\.alternatives\[0\]\.id: not UTF-8 text: .* holds a lone surrogate$"):
        parse_problem(json.dumps(doc))
    doc["payload"]["alternatives"][0]["id"] = "caf\u00e9 \U0001f600"
    assert parse_problem(json.dumps(doc)).payload.instance.ids == ["caf\u00e9 \U0001f600"]

@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_canonical_write_parse_identity(name):
    text = load_fixture(name)
    pf = parse_problem(text)
    canonical = write_problem(pf)
    assert canonical == text  # fixtures ship in canonical form
    assert write_problem(parse_problem(canonical)) == canonical


def problem_text(ptype, payload):
    """A problem file in canonical layout (sorted keys, two-space indent)."""
    doc = {"spec_version": 1, "problem_type": ptype, "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def criteria(*specs):
    return [{"id": i, "direction": d, "weight": w} for i, d, w in specs]


#: one canonical payload per type not covered by a fixture, every optional key written
CANONICAL = {
    "rank": {
        "criteria": criteria(("cost", "min", "0.25"), ("quality", "max", "0.75")),
        "alternatives": [{"id": "a", "estimates": [3, "1.5"]}, {"id": "b", "estimates": [1, "1/3"]}],
        "p": "0.7",
        "q": "0.2",
    },
    "knapsack": {
        "criteria": criteria(("c1", "max", 1)),
        "items": [{"id": "i1", "value": [4], "cost": 2}, {"id": "i2", "value": ["2.5"], "cost": "1/3"}],
        "budget": 3,
    },
    "cluster": {
        "ids": ["a", "b", "c"],
        "matrix": [[0, 1, "2.5"], [1, 0, 1.5], ["2.5", 1.5, 0]],
        "linkage": "average",
        "k": 2,
    },
    "tsp": {"ids": ["a", "b", "c"], "matrix": [[0, 2, 3], [2, 0, 4], [3, 4, 0]], "start": "b"},
    "trajectory": {
        "stages": [
            {"time": 1, "decisions": [{"id": "a1", "priority": 1}, {"id": "a2", "priority": 2}]},
            {"time": "2.5", "decisions": [{"id": "b1", "priority": 1}]},
        ],
        "compat": [{"from": "a1", "to": "b1", "value": 3}, {"from": "a2", "to": "b1", "value": 1}],
        "all_pairs": True,
    },
    "integrate": {
        "tree": {
            "id": "root",
            "scale": {"lo": 1, "hi": 2},
            "children": [
                {"id": "a", "scale": {"lo": 1, "hi": 2}, "estimate": 2},
                {"id": "b", "scale": {"lo": 0, "hi": 1}, "estimate": 0},
            ],
            "table": [
                {"inputs": [i, j], "output": 2 if (i, j) == (2, 1) else 1}
                for i in (1, 2)
                for j in (0, 1)
            ],
        }
    },
    "pipeline": {
        "criteria": criteria(("c", "max", 1)),
        "set1": {"ids": ["e1", "e2"], "matrix": [[0, 1], [1, 0]]},
        "set2": {"ids": ["f1"], "matrix": [[0]]},
        "k1": 2,
        "k2": 1,
        "correspondence": [[[2]], [[3]]],
        "action_criteria": criteria(("g", "min", 1)),
        "actions": [{"pair": ["e1", "f1"], "items": [{"id": "t1", "value": [1], "cost": "0.5"}]}],
        "budget": 2,
        "linkage": "complete",
    },
    "improve": {
        "criteria": criteria(("c1", "max", "0.5"), ("c2", "min", "0.5")),
        "parts": [{"id": "p1", "actions": [{"id": "x1", "effect": [1, 2], "cost": 1}]}],
        "budget": "1.5",
    },
}


@pytest.mark.parametrize("ptype", sorted(CANONICAL))
def test_canonical_write_parse_identity_per_type(ptype):
    text = problem_text(ptype, CANONICAL[ptype])
    assert write_problem(parse_problem(text)) == text


C, C_FULL = [{"id": "c"}], criteria(("c", "max", 1))
ITEM = {"id": "i", "value": [1], "cost": 1}

#: problem type -> (minimal payload, what the canonical form adds or fills in)
MINIMAL = {
    "rank": (
        {"criteria": C, "alternatives": [{"id": "a", "estimates": [1]}]},
        {"criteria": C_FULL, "p": "0.6", "q": "0.4"},
    ),
    "knapsack": ({"criteria": C, "items": [ITEM], "budget": 1}, {"criteria": C_FULL}),
    "mckp": (
        {"criteria": C, "groups": [{"id": "g", "items": [ITEM]}], "budget": 1},
        {"criteria": C_FULL, "group_rule": "at_most_one"},
    ),
    "cluster": ({"ids": ["a", "b"], "matrix": [[0, 1], [1, 0]]}, {"linkage": "single"}),
    "assign": (
        {"criteria": C, "agents": ["x"], "positions": ["p"], "matrix": [[[1]]]},
        {"criteria": C_FULL, "capacity": {"p": 1}},
    ),
    "tsp": ({"ids": ["a", "b", "c"], "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}, {}),
    "morph": (
        {
            "tree": {
                "id": "r",
                "children": [
                    {"id": "x", "alternatives": [{"id": "x1", "priority": 1}]},
                    {"id": "y", "alternatives": [{"id": "y1", "priority": 1}]},
                ],
            },
            "compat": [],
        },
        {"priority_scale": {"lo": 1, "hi": 3}, "compat_scale": {"lo": 0, "hi": 3}},
    ),
    "trajectory": (
        {"stages": [{"time": 1, "decisions": [{"id": "a", "priority": 1}]}], "compat": []},
        {"all_pairs": False},
    ),
    "integrate": ({"tree": {"id": "r", "scale": {"lo": 1, "hi": 2}, "estimate": 1}}, {}),
    "pipeline": (
        {
            "criteria": C,
            "set1": {"ids": ["e"], "matrix": [[0]]},
            "set2": {"ids": ["f"], "matrix": [[0]]},
            "k1": 1,
            "k2": 1,
            "correspondence": [[[1]]],
            "action_criteria": C,
            "actions": [],
            "budget": 0,
        },
        {"criteria": C_FULL, "action_criteria": C_FULL, "linkage": "single"},
    ),
    "improve": (
        {"criteria": C, "parts": [{"id": "p", "actions": [{"id": "a", "effect": [1], "cost": 1}]}], "budget": 1},
        {"criteria": C_FULL},
    ),
}


@pytest.mark.parametrize("ptype", sorted(MINIMAL))
def test_canonical_form_writes_defaults(ptype):
    payload, added = MINIMAL[ptype]
    written = json.loads(write_problem(parse_problem(problem_text(ptype, payload))))
    assert written["payload"] == {**payload, **added}


def test_course_fixture_compat_matches_reference_tables():
    pf = parse_problem(load_fixture("course_example.morph"))
    system = pf.payload.system
    expected = {}
    for (a, b), v in data.TABLE_SYSTEMS.items():
        expected[("E", a, b)] = v
    for (a, b), v in data.TABLE_DECISION.items():
        expected[("H", a, b)] = v
    for (a, b), v in data.TABLE_MORPH.items():
        expected[("W", a, b)] = v
    assert system.compat == expected
    for da, prio in data.COURSE_PRIORITIES.items():
        node = next(
            n for n in ("L", "M", "F", "G", "D", "O", "B", "P", "I", "C")
            if da.startswith(n)
        )
        leaf = system.node(node)
        assert {x.id: x.priority for x in leaf.alternatives}[da] == prio


RELATIONS = ("a_dominates_b", "b_dominates_a", "incomparable")


def load_quality_cases(text):
    """The (a, b, relation) cases of the auxiliary fixture format: expected
    dominance relations between quality-vector pairs, read strictly by
    probio's codecs."""
    from hmmdkit.probio import _read

    quality = Record(("w", INT, "w"), ("counts", List(INT, 1), "counts"), build=QualityVector)
    relation = Leaf(lambda raw: raw if raw in RELATIONS else fail(f"unknown relation {raw!r}"))
    case = Record(("a", quality, 0), ("b", quality, 1), ("relation", relation, 2))
    doc = _envelope(text, "kind", ("quality_cases",), "cases")
    return _read(List(case, 1, list).parse, doc["cases"], "$.cases")


def test_every_fixture_parses_and_solves():
    from hmmdkit.assign import assign_greedy
    from hmmdkit.mckp import mckp_exact_dp, mckp_greedy
    from hmmdkit.synth import synthesize_tree

    for name in FIXTURES:
        pf = parse_problem(load_fixture(name))
        if pf.problem_type == "morph":
            assert synthesize_tree(pf.payload.system)
        elif pf.problem_type == "assign":
            assert assign_greedy(pf.payload.instance).pairs
        elif pf.problem_type == "mckp":
            sol = mckp_greedy(pf.payload.instance)
            assert sol.total_cost <= pf.payload.instance.budget
            assert mckp_exact_dp(pf.payload.instance).objective >= sol.objective
    cases = load_quality_cases(load_fixture("fig6_quality.cases"))
    assert cases
    for a, b, relation in cases:
        ab, ba = n_dominates(a, b), n_dominates(b, a)
        got = "a_dominates_b" if ab else "b_dominates_a" if ba else "incomparable"
        assert got == relation


def test_student_fixture_priorities_follow_from_ranking():
    # alternatives carrying estimate vectors get their ordinal priority
    # from utility ranking; the stored priorities must agree
    from hmmdkit.rank import RankingInstance, rank_utility
    from hmmdkit.criteria import equal_weight_frame

    pf = parse_problem(load_fixture("student_strategy.morph"))
    basic = pf.payload.system.node("basic")
    assert all(da.estimates is not None for da in basic.alternatives)
    inst = RankingInstance(
        equal_weight_frame(len(basic.alternatives[0].estimates)),
        tuple((da.id, da.estimates) for da in basic.alternatives),
    )
    derived = rank_utility(inst).priorities
    assert derived == {da.id: da.priority for da in basic.alternatives}


def test_fixture_path_exists():
    import os

    for name in FIXTURES + ["fig6_quality.cases"]:
        assert os.path.exists(fixture_path(name))


def test_non_finite_matrix_entries_rejected():
    doc = {
        "spec_version": 1,
        "problem_type": "tsp",
        "payload": {
            "ids": ["a", "b", "c"],
            "matrix": [[0, 1, 1], [1, 0, 1e999], [1, 1e999, 0]],
        },
    }
    with pytest.raises(ParseError, match="finite"):
        parse_problem(json.dumps(doc))


def test_integrate_duplicate_node_ids_rejected():
    doc = {
        "spec_version": 1,
        "problem_type": "integrate",
        "payload": {
            "tree": {
                "id": "root",
                "scale": {"lo": 1, "hi": 2},
                "children": [
                    {"id": "dup", "scale": {"lo": 1, "hi": 2}, "estimate": 1},
                    {"id": "dup", "scale": {"lo": 1, "hi": 2}, "estimate": 2},
                ],
                "table": [
                    {"inputs": [i, j], "output": max(i, j)}
                    for i in (1, 2)
                    for j in (1, 2)
                ],
            }
        },
    }
    with pytest.raises(ParseError, match=r"^\$\.payload\.tree: duplicate node id 'dup'$"):
        parse_problem(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda tree: tree.update(estimate=1),
            r"\$\.payload\.tree: internal node 'root' must not carry an estimate",
        ),
        (
            lambda tree: tree["children"][0].update(table=[{"inputs": [], "output": 1}]),
            r"\$\.payload\.tree\.children\[0\]: leaf 'a' must not carry a table",
        ),
    ],
    ids=["estimate-on-internal-node", "table-on-leaf"],
)
def test_integrate_misplaced_estimate_or_table_rejected(mutate, message):
    payload = json.loads(json.dumps(CANONICAL["integrate"]))
    mutate(payload["tree"])
    with pytest.raises(ParseError, match=message):
        parse_problem(problem_text("integrate", payload))


def test_morph_compat_typo_rejected_at_parse():
    text = load_fixture("course_example.morph")
    doc = json.loads(text)
    doc["payload"]["compat"][0]["left"] = "L9"  # no such alternative
    with pytest.raises(ParseError, match="L9"):
        parse_problem(json.dumps(doc))


@pytest.mark.parametrize("priority", [0, -7])
def test_trajectory_priority_below_one_rejected(priority):
    doc = {
        "spec_version": 1,
        "problem_type": "trajectory",
        "payload": {
            "stages": [
                {"time": 1, "decisions": [{"id": "a", "priority": 1}]},
                {"time": 2, "decisions": [{"id": "b", "priority": priority}]},
            ],
            "compat": [{"from": "a", "to": "b", "value": 2}],
        },
    }
    with pytest.raises(ParseError, match=r"\$\.payload\.stages\[1\].*below 1"):
        parse_problem(json.dumps(doc))


MUTANT_VALUES = (None, [], {}, "", -1, True, "1/0")


def mutants(node):
    """Copies of a JSON document with one change each: a value replaced by
    one of MUTANT_VALUES, a key dropped or added, or a list entry repeated."""
    if isinstance(node, dict):
        for k, v in node.items():
            for value in MUTANT_VALUES:
                yield {**node, k: value}
            yield {kk: vv for kk, vv in node.items() if kk != k}
            yield from ({**node, k: m} for m in mutants(v))
        yield {**node, "surprise": 1}
    elif isinstance(node, list):
        for i, v in enumerate(node):
            for value in MUTANT_VALUES:
                yield node[:i] + [value] + node[i + 1 :]
            yield from (node[:i] + [m] + node[i + 1 :] for m in mutants(v))
        if node:
            yield node + node[:1]


def test_mutated_fixtures_fail_only_with_a_json_path():
    rng = random.Random(31)
    for name in FIXTURES:
        all_mutants = list(mutants(json.loads(load_fixture(name))))
        for doc in rng.sample(all_mutants, 250):
            try:
                parse_problem(json.dumps(doc))
            except ParseError as exc:
                assert exc.path.startswith("$"), str(exc)


def test_number_encoding():
    from hmmdkit.exact import encode_number  # not at the top: tools/report_diff.py imports this file on older trees

    assert encode_number(Fraction(5)) == 5
    assert encode_number(Fraction(5, 4)) == "1.25"
    assert encode_number(Fraction(1, 2)) == "0.5"
    assert encode_number(Fraction(-3, 8)) == "-0.375"
    assert encode_number(Fraction(1, 3)) == "1/3"
    assert encode_number(Fraction(-7, 6)) == "-7/6"
    assert encode_number(0.25) == 0.25


def oracle_encode_number(x):
    """The decimal form when the denominator's only primes are 2 and 5,
    found by stripping both factors one at a time, and when str() can
    write its digits."""
    if x.denominator == 1:
        return x.numerator
    rest, twos, fives = x.denominator, 0, 0
    while rest % 2 == 0:
        rest, twos = rest // 2, twos + 1
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if rest != 1:
        return f"{x.numerator}/{x.denominator}"
    k = max(twos, fives)
    try:
        digits = str(abs(x.numerator) * 10**k // x.denominator).rjust(k + 1, "0")
    except ValueError:  # past Python's int/str digit limit
        return f"{x.numerator}/{x.denominator}"
    return ("-" if x < 0 else "") + f"{digits[:-k]}.{digits[-k:]}"


def test_number_encoding_matches_the_factor_stripping_oracle():
    from hmmdkit.exact import encode_number  # not at the top: tools/report_diff.py imports this file on older trees

    rng = random.Random(32)
    for _ in range(5000):
        den = 2 ** rng.randint(0, 40) * 5 ** rng.randint(0, 30) * rng.choice([1, 1, 3, 7, 9, 11])
        x = Fraction(rng.randint(-(10 ** rng.randint(0, 30)), 10 ** rng.randint(0, 30)), den)
        expected = oracle_encode_number(x)
        assert encode_number(x) == expected and type(encode_number(x)) is type(expected), x
    # denominators at the digit limit: the digits written are only those the
    # number has; 1/2**14000 has 4,215 digits in its denominator but 9,786 in
    # its decimal digits, so it is written as p/q
    for x in (Fraction(1, 10**2000), Fraction(-1, 10**4299), Fraction(1, 5**2700), Fraction(3, 2**5000),
              Fraction(1, 2**14000), Fraction(-(10**4299), 2**14000), Fraction(7, 5**6000)):
        assert encode_number(x) == oracle_encode_number(x), x
    assert encode_number(Fraction(1, 2**14000)) == f"1/{2**14000}"


def test_a_number_at_the_digit_limit_is_written_back_as_a_decimal():
    text = problem_text("knapsack", {"criteria": C, "items": [ITEM], "budget": "1e-4299"})
    canonical = write_problem(parse_problem(text))
    assert '"budget": "0.' + "0" * 4298 + '1"' in canonical
    assert write_problem(parse_problem(canonical)) == canonical


def test_a_number_whose_decimal_form_passes_the_digit_limit_round_trips_as_a_fraction():
    # the number is within the limit, but its exact decimal has 14,000
    # digits after the point, more than str() writes
    cost = "1/" + str(2**14000)
    text = problem_text("knapsack", {"criteria": C, "items": [{**ITEM, "cost": cost}], "budget": 1})
    canonical = write_problem(parse_problem(text))
    assert f'"cost": "{cost}"' in canonical
    assert write_problem(parse_problem(canonical)) == canonical


def random_result(rng):
    kind = rng.choice(
        ["rank", "knapsack", "tsp", "morph", "assign", "cluster", "pipeline", "improve"]
    )
    if kind == "rank":
        ids = [f"a{i}" for i in range(rng.randint(1, 5))]
        solution = {
            "priorities": {a: rng.randint(1, 3) for a in ids},
            "scores": {a: Fraction(rng.randint(0, 20), rng.randint(1, 7)) for a in ids},
        }
        method = rng.choice(["utility", "pareto", "outranking", "ideal"])
    elif kind in ("knapsack", "improve"):
        chosen = [f"i{i}" for i in range(rng.randint(0, 4))]
        solution = {
            "chosen": chosen,
            "total_cost": Fraction(rng.randint(0, 30)),
            "objective": Fraction(rng.randint(0, 99), rng.randint(1, 9)),
            "objective_vector": [Fraction(rng.randint(0, 9)) for _ in range(2)],
        }
        if kind == "improve":
            solution["by_part"] = {
                f"p{i}": rng.choice([None, f"act{i}"]) for i in range(3)
            }
        method = "greedy" if kind == "knapsack" else "auto"
    elif kind == "tsp":
        ids = [f"c{i}" for i in range(4)]
        rng.shuffle(ids)
        solution = {"order": ids, "length": rng.random() * 10}
        method = "two_opt"
    elif kind == "assign":
        solution = {
            "solutions": [
                {
                    "pairs": [["a1", "p1"], ["a2", "p2"]],
                    "objective": Fraction(rng.randint(0, 9), rng.randint(1, 4)),
                    "objective_vector": [Fraction(rng.randint(0, 9)) for _ in range(2)],
                }
            ]
        }
        method = rng.choice(["greedy", "exact", "pareto"])
    elif kind == "cluster":
        solution = {
            "merges": [
                {
                    "left": ["x0"],
                    "right": ["x1"],
                    "height": rng.choice([rng.random() * 5, Fraction(rng.randint(1, 9), 2)]),
                }
            ],
            "partition": rng.choice([None, [["x0", "x1"]]]),
        }
        method = rng.choice(["single", "complete", "average"])
    elif kind == "pipeline":
        solution = {
            "clusters1": [["e1"], ["e2"]],
            "clusters2": [["f1"]],
            "assignment": [[0, 0]],
            "actions": [
                {
                    "element1": "e1",
                    "element2": "f1",
                    "action": "t1",
                    "cost": Fraction(rng.randint(1, 9), rng.randint(1, 3)),
                }
            ],
            "total_cost": Fraction(rng.randint(0, 9)),
            "objective": Fraction(rng.randint(0, 9), 7),
            "mckp_method": "greedy",
        }
        method = "chain"
    else:
        solution = {
            "root": "root",
            "nodes": [
                {
                    "id": "root",
                    "composites": [
                        {
                            "id": "root_1",
                            "selection": [["p1", "x"], ["p2", "y"]],
                            "leaves": [["p1", "x"], ["q1", "y1"], ["q2", "y2"]],
                            "quality": {"w": rng.randint(0, 3), "counts": [2, 0, 0]},
                            "priority": 1,
                        }
                    ],
                }
            ],
        }
        method = "synthesis"
    # the diagnostics the CLI writes: none, an oracle verdict, or improve's solver
    diagnostics = rng.choice([{}, {"oracle": "ok (exact >= greedy)"}, {"solver": "exact_dp"}])
    return ResultFile(
        spec_version=1,
        problem_type=kind,
        method=method,
        solution=solution,
        diagnostics=diagnostics,
    )


def test_result_round_trip_on_random_results():
    rng = random.Random(179)
    for _ in range(100):
        result = random_result(rng)
        text = write_result(result, ResultFormat.STRUCTURED)
        back = parse_result(text)
        assert back == result
        assert write_result(back, ResultFormat.STRUCTURED) == text


def json_text(text):
    """What ``json.dumps`` writes for the document in ``text``: the layout
    the codecs' writer reproduces byte for byte."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_write_problem_and_write_result_lay_out_text_as_json_does():
    rng = random.Random(43)
    sources = [load_fixture(name) for name in FIXTURES]
    sources += [problem_text(ptype, payload) for ptype, payload in CANONICAL.items()]
    sources += [problem_text(ptype, payload) for ptype, (payload, _) in MINIMAL.items()]
    problems = []
    for text in sources:
        problems.append(text)
        # the mutants that still parse: keys dropped, values changed, entries repeated
        all_mutants = list(mutants(json.loads(text)))
        problems += [json.dumps(doc) for doc in rng.sample(all_mutants, min(200, len(all_mutants)))]
    written = 0
    for text in problems:
        try:
            pf = parse_problem(text)
        except ParseError:
            continue
        canonical = write_problem(pf)
        assert canonical == json_text(canonical)
        assert write_problem(parse_problem(canonical)) == canonical
        written += 1
    assert written > 100
    for _ in range(100):
        result = random_result(rng)
        text = write_result(result)
        assert text == json_text(text)
        assert parse_result(text) == result


def test_the_writer_matches_json_on_edge_values():
    def written(solution, diagnostics=()):
        return write_result(ResultFile(1, "tsp", "two_opt", solution, dict(diagnostics)))

    def expected(solution, diagnostics=()):
        doc = {"spec_version": 1, "problem_type": "tsp", "method": "two_opt",
               "solution": solution, "diagnostics": dict(diagnostics)}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    edges = [
        ({"order": [], "length": 0}, {}),  # an empty list and an empty map
        ({"order": ["caf\u00e9", "\U0001f600", "\ud800"], "length": 1}, {"solver": "\u00e9", "oracle": "ok"}),
        ({"order": ("a", "b"), "length": 2}, {}),
        *(({"order": ["a"], "length": x}, {}) for x in (1e308, -0.0, 0.1, math.nan, math.inf, -math.inf)),
    ]
    for solution, diagnostics in edges:
        text = written(solution, diagnostics)
        assert text == expected(solution, diagnostics)
    from hmmdkit.exact import MATRIX  # not at the top: tools/report_diff.py imports this file on older trees

    matrix = [[1e308, -0.0, 2], [math.nan, math.inf, -math.inf], []]
    assert MATRIX.write(matrix, "") == json.dumps(matrix, indent=2)
    assert math.copysign(1, parse_result(written({"order": ["a"], "length": -0.0})).solution["length"]) == -1
    # past Python's int/str digit limit, json raises ValueError and so does the writer
    huge = {"order": ["a"], "length": 10**5000}
    with pytest.raises(ValueError):
        expected(huge)
    with pytest.raises(ValueError):
        written(huge)
    # json writes the int key 1 as "1"; the writer refuses a key that is not a str
    rank = ResultFile(1, "rank", "utility", {"priorities": {1: 1}, "scores": {1: 0}}, {})
    with pytest.raises(TypeError):
        write_result(rank)


#: JSON scalars: escapes, lone and paired surrogates, raw non-ASCII, the
#: constants json.loads reads (NaN, Infinity, -Infinity) and a float past range
JSON_SCALARS = ["0", "-12", "1.5e3", "-0.0", "5e-324", "1e999", "-1e999", "NaN", "Infinity", "-Infinity",
                "true", "false", "null", '""', '"a"', '"caf\\u00e9"', '"\\ud800"', '"\\ud83d\\ude00"',
                '"\\udc00\\ud800"', '"\\"\\\\\\/\\b\\f\\n\\r\\t"', '"é\U0001f600"']
#: object keys; "a" is "a" again, so objects repeat keys often
JSON_KEYS = ['"a"', '"b"', '"\\u0061"', '"é"', '"\\ud800"']


def random_json(rng, depth=0):
    """A random JSON text with JSON whitespace, all four characters, between its tokens."""
    def ws():
        return "".join(rng.choice(" \t\n\r") for _ in range(rng.randint(0, 2)))

    kind = rng.random() if depth < 3 else 1
    if kind < 0.25:
        return "[" + ws() + ",".join(ws() + random_json(rng, depth + 1) + ws() for _ in range(rng.randint(0, 3))) + "]"
    if kind < 0.5:
        entries = (ws() + rng.choice(JSON_KEYS) + ws() + ":" + ws() + random_json(rng, depth + 1) + ws()
                   for _ in range(rng.randint(0, 4)))
        return "{" + ws() + ",".join(entries) + "}"
    return rng.choice(JSON_SCALARS)


def exactly(value):
    """``value`` in a form that compares NaN, -0.0, types and repeated keys exactly."""
    if isinstance(value, dict):
        return type(value), getattr(value, "read_keys", None), [(k, exactly(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [exactly(v) for v in value]
    return type(value), repr(value)


def decoded(load, text):
    """What ``load(text)`` gives: the value, or the exception's type and message."""
    try:
        return "value", exactly(load(text))
    except (ValueError, RecursionError) as exc:
        return "error", type(exc), str(exc)


#: texts at the edges: malformed ones, a float past range, an int past the
#: int/str digit limit and nesting past the recursion limit
EDGE_JSON = ["", " \t\n\r", "\ufeff{}", "{} x", "[1,]", '{"a" 1}', '"\x01"', "[1] \n ]", "{", "nul",
             '"\\x"', '"\\ud80"', "01", "1e999", "1" * 5000, "[" * 100_000]


def test_loads_gives_what_json_loads_gives(monkeypatch):
    # probio drives _json's C scanner itself: every value, and every error's
    # type and message, is what json.loads with the object-pairs hook gives;
    # a value is read without the json package, which only an error imports
    from hmmdkit.probio import _loads, _object  # not at the top: tools/report_diff.py imports this file on older trees

    def reference(text):
        return json.loads(text, object_pairs_hook=_object)

    rng = random.Random(33)
    texts = list(EDGE_JSON)
    for _ in range(3000):
        text = random_json(rng)
        texts.append(rng.choice(["", " ", "\t\n", "\r"]) + text + rng.choice(["", " ", "\n", " \r\t"]))
        if text:  # and a copy with one character deleted or inserted
            i = rng.randrange(len(text))
            cut = text[i + 1:] if rng.random() < 0.5 else rng.choice('[]{},:" 1x') + text[i:]
            texts.append(text[:i] + cut)
    outcomes = {"value": 0, "error": 0}
    for text in texts:
        expected = decoded(reference, text)
        with monkeypatch.context() as patch:
            if expected[0] == "value":
                patch.setitem(sys.modules, "json", None)  # import json raises ImportError
            assert decoded(_loads, text) == expected, repr(text[:80])
        outcomes[expected[0]] += 1
    assert min(outcomes.values()) > 500, outcomes  # both values and errors are swept


def test_text_is_what_json_dumps_writes():
    from hmmdkit.probio import _text

    class Real(float):
        pass

    class Whole(int):
        pass

    values = [True, False, None, -0.0, 0.0, 1e16, 5e-324, 1e308, 0.1, math.nan, -math.nan, math.inf, -math.inf,
              Real(2.5), Real(math.inf), Whole(1), Whole(-7), 0, -(10**30), "café \ud800 \"\\\n", [1, [None]]]
    for x in values:
        assert _text(x) == json.dumps(x), repr(x)


def test_id_keyed_maps_round_trip_whatever_the_ids():
    # part and node ids that match numeric field names stay plain ids
    improve = ResultFile(
        1,
        "improve",
        "auto",
        {
            "chosen": ["cost::7"],
            "total_cost": Fraction(2),
            "objective": Fraction(1, 2),
            "objective_vector": [Fraction(1, 2)],
            "by_part": {"cost": "7", "time": "1/2"},
        },
        {"solver": "exact_dp"},
    )
    integrate = ResultFile(
        1, "integrate", "tables", {"root_estimate": 2, "trace": {"length": 2, "root": 2}}, {}
    )
    for result in (improve, integrate):
        text = write_result(result, ResultFormat.STRUCTURED)
        back = parse_result(text)
        assert back == result
        assert write_result(back, ResultFormat.STRUCTURED) == text
    assert type(parse_result(write_result(integrate)).solution["trace"]["length"]) is int


KNAPSACK_REPORT = {
    "spec_version": 1,
    "problem_type": "knapsack",
    "method": "greedy",
    "solution": {"chosen": ["i"], "total_cost": 1, "objective": "0.5", "objective_vector": [1]},
    "diagnostics": {},
}
RANK_REPORT = {
    "spec_version": 1,
    "problem_type": "rank",
    "method": "utility",
    "solution": {"priorities": {"a3": 1}, "scores": {"a3": "1/3"}},
    "diagnostics": {"oracle": "ok (dominance consistency)"},
}


MORPH_TWO_LEVELS = {
    "tree": {"id": "r", "children": [
        {"id": "s", "children": [
            {"id": "x", "alternatives": [{"id": "x1", "priority": 1}]},
            {"id": "y", "alternatives": [{"id": "y1", "priority": 1}]},
        ]},
        {"id": "z", "alternatives": [{"id": "z1", "priority": 1}]},
    ]},
    "compat": [],
}
MCKP_TWO_GROUPS = {"criteria": C, "budget": 1, "groups": [
    {"id": "g", "items": [ITEM]}, {"id": "h", "items": [{**ITEM, "id": "b"}]},
]}
COMPAT_ROW = {"node": "r", "left": "x1", "right": "y1", "value": 1}
TSP, RANK = problem_text("tsp", CANONICAL["tsp"]), problem_text("rank", MINIMAL["rank"][0])

#: case -> (reader, a file it reads, the keys and indices of one value, a
#: value put there, the exact error): each kind of path the codecs put
#: together, for a leaf, a build's sub-step, a domain record or a table row
PATH_ERRORS = {
    "cluster-k": (parse_problem, problem_text("cluster", MINIMAL["cluster"][0]), ("payload", "k"), 3,
                  "$.payload.k: k=3 outside 1..2"),
    "tsp-start": (parse_problem, TSP, ("payload", "start"), "z", "$.payload.start: unknown city 'z'"),
    "pipeline-pair": (parse_problem, problem_text("pipeline", CANONICAL["pipeline"]),
                      ("payload", "actions", 0, "pair"), ["e1"],
                      "$.payload.actions[0].pair: expected [element1, element2]"),
    "morph-compat": (parse_problem, problem_text("morph", MINIMAL["morph"][0]), ("payload", "compat"),
                     [COMPAT_ROW, COMPAT_ROW], "$.payload.compat[1]: duplicate entry for ('r', 'x1', 'y1')"),
    "trajectory-all-pairs": (parse_problem, problem_text("trajectory", CANONICAL["trajectory"]),
                             ("payload", "all_pairs"), 1, "$.payload.all_pairs: expected a boolean, got 1"),
    "tsp-matrix-str": (parse_problem, TSP, ("payload", "matrix", 1, 2), "x",
                       "$.payload.matrix[1][2]: not a number: 'x'"),
    "tsp-matrix-true": (parse_problem, TSP, ("payload", "matrix", 1, 2), True,
                        "$.payload.matrix[1][2]: expected a number, got True"),
    "tsp-matrix-null": (parse_problem, TSP, ("payload", "matrix", 1, 2), None,
                        "$.payload.matrix[1][2]: expected a number, got None"),
    "tsp-matrix-list": (parse_problem, TSP, ("payload", "matrix", 1, 2), [1],
                        "$.payload.matrix[1][2]: expected a number, got [1]"),
    "criteria-duplicate": (parse_problem, RANK, ("payload", "criteria"), C + C,
                           "$.payload.criteria: duplicate criterion id 'c'"),
    "assign-capacity": (parse_problem, problem_text("assign", MINIMAL["assign"][0]), ("payload", "capacity"),
                        {"p": "two"}, "$.payload.capacity.p: expected an integer, got 'two'"),
    "diagnostics-oracle": (parse_result, json.dumps(RANK_REPORT), ("diagnostics", "oracle"), "",
                           "$.diagnostics.oracle: expected a non-empty string"),
    "morph-nested": (parse_problem, problem_text("morph", MORPH_TWO_LEVELS),
                     ("payload", "tree", "children", 0, "children", 1, "alternatives", 0, "priority"), "high",
                     "$.payload.tree.children[0].children[1].alternatives[0].priority: expected an integer, got 'high'"),
    "mckp-nested": (parse_problem, problem_text("mckp", MCKP_TWO_GROUPS), ("payload", "groups", 1, "items", 0, "cost"),
                    -1, "$.payload.groups[1].items[0].cost: item 'b': cost must be nonnegative"),
    "mckp-budget": (parse_problem, problem_text("mckp", MCKP_TWO_GROUPS), ("payload", "budget"), -1,
                    "$.payload.budget: budget must be nonnegative"),
    "rank-weight": (parse_problem, RANK, ("payload", "criteria", 0, "weight"), -1,
                    "$.payload.criteria[0].weight: criterion 'c': weight must be nonnegative"),
    "integrate-nested": (parse_problem, problem_text("integrate", CANONICAL["integrate"]),
                         ("payload", "tree", "table", 1, "output"), "x",
                         "$.payload.tree.table[1].output: expected an integer, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(PATH_ERRORS))
def test_an_error_is_reported_at_the_value_being_read(case):
    read, text, where, value, message = PATH_ERRORS[case]
    read(text)  # the file reads until the one value is changed
    doc = node = json.loads(text)
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = value
    with pytest.raises(ParseError) as exc:
        read(json.dumps(doc))
    assert str(exc.value) == message


def with_solution(report, **changes):
    return {**report, "solution": {**report["solution"], **changes}}


@pytest.mark.parametrize(
    "doc, path",
    [
        (with_solution(KNAPSACK_REPORT, surprise=1), "$.solution"),
        (with_solution(KNAPSACK_REPORT, objective="abc"), "$.solution.objective"),
        (with_solution(KNAPSACK_REPORT, objective=True), "$.solution.objective"),
        (with_solution(RANK_REPORT, priorities={"a3": 1.5}), "$.solution.priorities.a3"),
        ({**RANK_REPORT, "problem_type": "qap"}, "$.problem_type"),
        ({**RANK_REPORT, "spec_version": 2}, "$.spec_version"),
        # text, since json.dumps cannot repeat a key
        (json.dumps(RANK_REPORT).replace('{"a3": 1}', '{"a3": 2, "a3": 1}'), "$.solution.priorities"),
    ],
    ids=["unknown-key", "objective-abc", "objective-true", "fractional-priority", "unknown-type", "version-2",
         "repeated-key"],
)
def test_parse_result_rejects_with_a_json_path(doc, path):
    for report in (KNAPSACK_REPORT, RANK_REPORT):
        assert write_result(parse_result(json.dumps(report))) == json.dumps(report, sort_keys=True, indent=2) + "\n"
    with pytest.raises(ParseError) as exc:
        parse_result(doc if isinstance(doc, str) else json.dumps(doc))
    assert exc.value.path == path


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"budget": 15', '"budget": 1, "budget": 15', "$.payload: duplicate key 'budget'"),
        ('"cost": 2,', '"cost": 2, "id": "x", "cost": 2,', "$.payload.groups[0].items[0]: duplicate key 'cost'"),
        ('"spec_version": 1', '"spec_version": 1, "spec_version": 1', "$: duplicate key 'spec_version'"),
    ],
    ids=["payload", "item", "envelope"],
)
def test_repeated_keys_rejected_with_a_json_path(old, new, message):
    # plain json.loads would keep the last value of a repeated key
    text = load_fixture("table5_mckp.mckp")
    assert old in text
    with pytest.raises(ParseError) as exc:
        parse_problem(text.replace(old, new, 1))
    assert str(exc.value) == message


def test_mutated_fixture_reports_fail_only_with_a_json_path(capsys):
    from hmmdkit.cli import COMMANDS, main

    commands = {ptype: command for command, (ptype, *_) in COMMANDS.items()}
    rng = random.Random(37)
    for name in FIXTURES:
        ptype = parse_problem(load_fixture(name)).problem_type
        assert main([commands[ptype], "--input", fixture_path(name), "--format", "json"]) == 0
        all_mutants = list(mutants(json.loads(capsys.readouterr().out)))
        for doc in rng.sample(all_mutants, min(250, len(all_mutants))):
            try:
                parse_result(json.dumps(doc))
            except ParseError as exc:
                assert exc.path.startswith("$"), str(exc)


def test_none_diagnostics_are_omitted():
    result = ResultFile(1, "tsp", "nearest", {"order": ["a"], "length": 0}, {"runtime_ms": None})
    text = write_result(result)
    assert "runtime_ms" not in text


def test_text_report_renders_quality_vectors():
    result = ResultFile(
        spec_version=1,
        problem_type="morph",
        method="synthesis",
        solution={
            "nodes": [
                {
                    "id": "E",
                    "composites": [
                        {
                            "id": "E_1",
                            "selection": [["L", "L2"], ["M", "M2"]],
                            "quality": {"w": 2, "counts": [4, 0, 0]},
                            "priority": 1,
                        }
                    ],
                }
            ]
        },
        diagnostics={},
    )
    text = write_result(result, ResultFormat.TEXT)
    assert "N(S) = (2; 4, 0, 0)" in text


def test_text_report_for_empty_selection():
    result = ResultFile(
        spec_version=1,
        problem_type="knapsack",
        method="greedy",
        solution={
            "chosen": [],
            "total_cost": Fraction(0),
            "objective": Fraction(0),
            "objective_vector": [Fraction(0)],
        },
        diagnostics={},
    )
    text = write_result(result, ResultFormat.TEXT)
    assert "chosen: (none)" in text
    assert "objective: 0" in text


def morph_chain(depth):
    """A morph problem file whose tree is a chain ``depth`` internal nodes
    deep, built in Python."""
    node = MorphNode("bottom", alternatives=(DesignAlternative("a", 1),))
    for i in reversed(range(depth)):
        node = MorphNode(f"n{i}", (node, MorphNode(f"l{i}", alternatives=(DesignAlternative("x", 2),))))
    return ProblemFile(1, "morph", MorphProblem(MorphSystem(node, {})))


@pytest.mark.parametrize("depth", [400, 2000])
def test_write_problem_refuses_a_tree_nested_too_deeply(depth):
    # the codec recurses through the tree level by level, as parse_problem
    # does, and parse_problem refuses a chain 400 levels deep too
    with pytest.raises(ValidationError, match="^nested too deeply$"):
        write_problem(morph_chain(depth))


def test_the_deepest_tree_write_problem_writes_parses_back():
    # the codecs recurse through the same three frames a level when writing
    # as when parsing, so at the top level the reader takes every tree the
    # writer writes (and test_cli's deepest-chain test pins the converse)
    lo, hi = 1, 400  # a chain write_problem writes, and one it refuses
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            write_problem(morph_chain(mid))
            lo = mid
        except ValidationError:
            hi = mid
    text = write_problem(morph_chain(lo))
    assert write_problem(parse_problem(text)) == text


@pytest.mark.parametrize("fmt", list(ResultFormat), ids=lambda fmt: fmt.value)
def test_write_result_refuses_a_value_nested_too_deeply(fmt):
    # a report's codecs pass a leaf value through as it is, and json.dumps
    # or the text report's repr recurses through it
    value = 1
    for _ in range(2000):
        value = [value]
    result = ResultFile(1, "integrate", "tables", {"root_estimate": value, "trace": {}}, {})
    with pytest.raises(ValidationError, match="^nested too deeply$"):
        write_result(result, fmt)
