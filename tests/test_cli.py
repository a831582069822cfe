import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmmdkit
from conftest import replace
from hmmdkit.cli import COMMANDS, main
from hmmdkit.probio import ParseError, fixture_path, parse_problem, parse_result, write_result
from test_probio import CANONICAL, MINIMAL, problem_text

COURSE = fixture_path("course_example.morph")
ASSIGN = fixture_path("table5_assign.assign")
MCKP = fixture_path("table5_mckp.mckp")
STUDENT = fixture_path("student_strategy.morph")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_course_example_lists_four_root_composites(capsys):
    code, out, err = run(capsys, "synth", "--input", COURSE, "--format", "text")
    assert code == 0
    root_lines = [l for l in out.splitlines() if l.startswith("  S_")]
    assert len(root_lines) == 4
    assert "N(S) = (2; 4, 0, 0)" in out
    assert "N(S) = (3; 2, 2, 0)" in out


def test_synth_student_strategy(capsys):
    code, out, err = run(capsys, "synth", "--input", STUDENT, "--format", "text")
    assert code == 0
    assert "node career:" in out


def test_missing_input_exits_3(capsys):
    code, out, err = run(capsys, "rank", "--method", "pareto", "--input", "missing.json")
    assert code == 3
    assert err.startswith("hmmdkit: error: parse:")
    assert err.count("\n") == 1


def test_type_mismatch_exits_2(capsys):
    code, out, err = run(capsys, "rank", "--input", MCKP)
    assert code == 2
    assert err.startswith("hmmdkit: error: usage:")


def test_unknown_method_exits_2(capsys):
    code, out, err = run(capsys, "tsp", "--method", "bogus", "--input", MCKP)
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, out, err = run(capsys, "not-a-command", "--input", MCKP)
    assert code == 2
    assert err.startswith("hmmdkit: error: usage:")
    assert err.count("\n") == 1


def test_unknown_flag_exits_2(capsys):
    code, out, err = run(capsys, "mckp", "--input", MCKP, "--frobnicate")
    assert code == 2
    assert err.startswith("hmmdkit: error: usage:")
    assert err.count("\n") == 1


def test_seed_flag_is_not_accepted(capsys):
    code, out, err = run(capsys, "synth", "--input", COURSE, "--seed", "1")
    assert code == 2
    assert err.startswith("hmmdkit: error: usage:")
    assert err.count("\n") == 1


def test_weights_rejected_where_not_applicable(capsys):
    code, out, err = run(capsys, "synth", "--input", COURSE, "--weights", "1,2")
    assert code == 2
    code, out, err = run(capsys, "mckp", "--input", MCKP, "--weights", "zero")
    assert code == 2


def test_mckp_oracle_passes_on_fixture(capsys):
    code, out, err = run(capsys, "mckp", "--input", MCKP, "--oracle", "--format", "json")
    assert code == 0
    result = parse_result(out)
    assert result.diagnostics["oracle"].startswith("ok")
    assert result.solution["total_cost"] == 15
    assert sorted(result.solution["chosen"]) == [
        "A1V6:T3",
        "A2V10:T3",
        "A3V12:T3",
        "A5V1:T2",
    ]


def test_assign_text_report_shows_reference_pairs(capsys):
    code, out, err = run(capsys, "assign", "--input", ASSIGN, "--format", "text")
    assert code == 0
    assert "A1 -> V6" in out and "A5 -> V1" in out
    assert "A4 ->" not in out


def test_pipeline_text_report_labels_clusters_by_set(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(problem_text("pipeline", CANONICAL["pipeline"]))
    code, out, err = run(capsys, "pipeline", "--input", str(path), "--format", "text")
    assert code == 0, err
    assert out.splitlines()[2:6] == [
        "cluster1[0]: e1",
        "cluster1[1]: e2",
        "cluster2[0]: f1",
        "match: cluster1[1] -> cluster2[0]",
    ]


def test_repeated_invocations_are_byte_identical(capsys):
    outputs = set()
    for _ in range(3):
        for fmt in ("json", "text"):
            code, out, err = run(capsys, "synth", "--input", COURSE, "--format", fmt)
            assert code == 0
            outputs.add((fmt, out))
    assert len(outputs) == 2


def test_unwritable_output_exits_1(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "mckp",
        "--input",
        MCKP,
        "--output",
        str(tmp_path / "no" / "such" / "dir" / "out.json"),
    )
    assert code == 1
    assert err.startswith("hmmdkit: error: output:")
    assert err.count("\n") == 1


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, err = run(
        capsys, "mckp", "--input", MCKP, "--format", "json", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    parsed = parse_result(target.read_text())
    assert parsed.problem_type == "mckp"


def test_guard_override_via_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HMMD_KIT_GUARD", "2")
    code, out, err = run(capsys, "mckp", "--input", MCKP, "--method", "exact")
    assert code == 1
    assert err.startswith("hmmdkit: error: solve:")


@pytest.mark.parametrize("raw", ["-3", "0", "abc"])
def test_guard_override_must_be_positive(capsys, monkeypatch, raw):
    monkeypatch.setenv("HMMD_KIT_GUARD", raw)
    # greedy consults no guard, and the value is still checked
    for method in ("exact", "greedy"):
        code, out, err = run(capsys, "mckp", "--input", MCKP, "--method", method)
        assert code == 3
        assert out == ""
        assert err == f"hmmdkit: error: parse: HMMD_KIT_GUARD must be a positive integer, got {raw!r}\n"


def test_parse_error_in_payload_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "spec_version": 1,
                "problem_type": "cluster",
                "payload": {"ids": ["a", "b"], "matrix": [[0, 1], [2, 0]]},
            }
        )
    )
    code, out, err = run(capsys, "cluster", "--input", str(bad))
    assert code == 3
    assert "matrix" in err


def test_infeasible_solve_exits_1(tmp_path, capsys):
    doc = {
        "spec_version": 1,
        "problem_type": "mckp",
        "payload": {
            "criteria": [{"id": "v"}],
            "groups": [
                {"id": "g", "items": [{"id": "a", "value": [1], "cost": 9}]}
            ],
            "budget": 4,
            "group_rule": "exactly_one",
        },
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mckp", "--input", str(path))
    assert code == 1
    assert err.startswith("hmmdkit: error: solve:")


def test_rank_end_to_end(tmp_path, capsys):
    doc = {
        "spec_version": 1,
        "problem_type": "rank",
        "payload": {
            "criteria": [{"id": "c1"}, {"id": "c2"}],
            "alternatives": [
                {"id": "a", "estimates": [1, 1]},
                {"id": "b", "estimates": [1, 0]},
                {"id": "c", "estimates": [0, 1]},
            ],
        },
    }
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(doc))
    for method, expected_best in [
        ("utility", "a"),
        ("pareto", "a"),
        ("outranking", "a"),
        ("ideal", "a"),
    ]:
        code, out, err = run(
            capsys, "rank", "--input", str(path), "--method", method, "--format", "json"
        )
        assert code == 0
        result = parse_result(out)
        assert result.solution["priorities"][expected_best] == 1


def test_tsp_and_cluster_and_oracle(tmp_path, capsys):
    tsp_doc = {
        "spec_version": 1,
        "problem_type": "tsp",
        "payload": {
            "ids": ["a", "b", "c", "d"],
            "matrix": [
                [0, 1, 2, 1],
                [1, 0, 1, 2],
                [2, 1, 0, 1],
                [1, 2, 1, 0],
            ],
            "start": "a",
        },
    }
    path = tmp_path / "tsp.json"
    path.write_text(json.dumps(tsp_doc))
    code, out, err = run(capsys, "tsp", "--input", str(path), "--oracle", "--format", "json")
    assert code == 0
    result = parse_result(out)
    assert result.solution["length"] == 4

    cluster_doc = {
        "spec_version": 1,
        "problem_type": "cluster",
        "payload": {
            "ids": ["p1", "p2", "p3"],
            "matrix": [[0, 1, 5], [1, 0, 4], [5, 4, 0]],
            "k": 2,
        },
    }
    cpath = tmp_path / "cluster.json"
    cpath.write_text(json.dumps(cluster_doc))
    code, out, err = run(
        capsys, "cluster", "--input", str(cpath), "--oracle", "--format", "json"
    )
    assert code == 0
    result = parse_result(out)
    assert result.solution["partition"] == [["p1", "p2"], ["p3"]]
    assert result.method == "single"


def test_trajectory_integrate_pipeline_improve_end_to_end(tmp_path, capsys):
    trajectory_doc = {
        "spec_version": 1,
        "problem_type": "trajectory",
        "payload": {
            "stages": [
                {"time": 1, "decisions": [{"id": "a1", "priority": 1}, {"id": "a2", "priority": 2}]},
                {"time": 2, "decisions": [{"id": "b1", "priority": 1}]},
            ],
            "compat": [
                {"from": "a1", "to": "b1", "value": 2},
                {"from": "a2", "to": "b1", "value": 3},
            ],
        },
    }
    integrate_doc = {
        "spec_version": 1,
        "problem_type": "integrate",
        "payload": {
            "tree": {
                "id": "root",
                "scale": {"lo": 1, "hi": 2},
                "children": [
                    {"id": "a", "scale": {"lo": 1, "hi": 2}, "estimate": 1},
                    {"id": "b", "scale": {"lo": 1, "hi": 2}, "estimate": 2},
                ],
                "table": [
                    {"inputs": [1, 1], "output": 1},
                    {"inputs": [1, 2], "output": 2},
                    {"inputs": [2, 1], "output": 2},
                    {"inputs": [2, 2], "output": 2},
                ],
            }
        },
    }
    pipeline_doc = {
        "spec_version": 1,
        "problem_type": "pipeline",
        "payload": {
            "criteria": [{"id": "fit"}],
            "set1": {"ids": ["e1", "e2"], "matrix": [[0, 5], [5, 0]]},
            "set2": {"ids": ["f1", "f2"], "matrix": [[0, 7], [7, 0]]},
            "k1": 2,
            "k2": 2,
            "correspondence": [[[3], [1]], [[1], [3]]],
            "action_criteria": [{"id": "gain"}],
            "actions": [
                {"pair": ["e1", "f1"], "items": [{"id": "t1", "value": [4], "cost": 2}]},
                {"pair": ["e2", "f2"], "items": [{"id": "t1", "value": [2], "cost": 3}]},
            ],
            "budget": 5,
        },
    }
    improve_doc = {
        "spec_version": 1,
        "problem_type": "improve",
        "payload": {
            "criteria": [{"id": "perf"}, {"id": "safety"}],
            "parts": [
                {"id": "engine", "actions": [{"id": "tune", "effect": [3, 1], "cost": 2}]},
                {"id": "brakes", "actions": [{"id": "swap", "effect": [1, 4], "cost": 3}]},
            ],
            "budget": 5,
        },
    }
    for name, doc, expect in [
        ("trajectory", trajectory_doc, "a2 -> b1"),
        ("integrate", integrate_doc, "root estimate: 2"),
        ("pipeline", pipeline_doc, "action (e1, f1): t1 at cost 2"),
        ("improve", improve_doc, "engine: tune"),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, name, "--input", str(path), "--oracle", "--format", "text"
        )
        assert code == 0, err
        assert expect in out
        code, out_json, err = run(
            capsys, name, "--input", str(path), "--format", "json"
        )
        assert code == 0
        assert parse_result(out_json).problem_type == name


def test_knapsack_end_to_end(tmp_path, capsys):
    doc = {
        "spec_version": 1,
        "problem_type": "knapsack",
        "payload": {
            "criteria": [{"id": "v"}],
            "items": [
                {"id": "a", "value": [9], "cost": 5},
                {"id": "b", "value": [5], "cost": 3},
                {"id": "c", "value": [4], "cost": 3},
            ],
            "budget": 6,
        },
    }
    path = tmp_path / "knap.json"
    path.write_text(json.dumps(doc))
    for method in ("greedy", "exact"):
        code, out, err = run(
            capsys, "knapsack", "--input", str(path), "--method", method,
            "--oracle", "--format", "json",
        )
        assert code == 0
        result = parse_result(out)
        assert result.solution["total_cost"] <= 6


def test_module_entry_point_runs_in_subprocess():
    # the child imports the same hmmdkit as this process, installed or not
    src = str(Path(hmmdkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hmmdkit", "synth", "--input", COURSE, "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    result = parse_result(proc.stdout)
    root = next(n for n in result.solution["nodes"] if n["id"] == "S")
    assert len(root["composites"]) == 4


@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_json_report_passes_the_strict_reader(command, oracle, tmp_path, capsys):
    ptype = COMMANDS[command][0]
    path = tmp_path / f"{ptype}.json"
    path.write_text(problem_text(ptype, MINIMAL[ptype][0]))
    code, out, err = run(capsys, command, "--input", str(path), "--format", "json", *(["--oracle"] if oracle else []))
    assert code == 0, err
    result = parse_result(out)
    assert result.problem_type == ptype
    assert write_result(result) == out


SELECTION_ITEMS = [{"id": f"i{k}", "value": [k + 1], "cost": k + 1} for k in range(4)]

#: command -> (payload, oracle ok text, guard-3 table size, solver made worse, oracle failure text)
SELECTION_ORACLES = {
    "knapsack": (
        {"criteria": [{"id": "c"}], "items": SELECTION_ITEMS, "budget": 5},
        "ok (greedy within 0.75 of exact)",
        "4 items x budget 5",
        "knapsack_greedy",
        "greedy objective 1/10 below 0.75 x exact 1",
    ),
    "mckp": (
        {"criteria": [{"id": "c"}], "groups": [{"id": "g", "items": SELECTION_ITEMS}], "budget": 5},
        "ok (exact >= greedy)",
        "1 groups x budget 5",
        "mckp_exact_dp",
        "exact objective 1/10 below greedy 1",
    ),
}


@pytest.mark.parametrize("command", sorted(SELECTION_ORACLES))
def test_selection_oracle_texts(command, tmp_path, capsys, monkeypatch):
    import hmmdkit.select as select

    payload, ok, table, worse, failure = SELECTION_ORACLES[command]
    path = tmp_path / "p.json"
    path.write_text(problem_text(command, payload))
    argv = [command, "--input", str(path), "--oracle", "--format", "json"]

    def oracle(method):
        code, out, err = run(capsys, *argv, "--method", method)
        assert code == 0, err
        return json.loads(out)["diagnostics"]["oracle"]

    assert oracle("greedy") == oracle("exact") == ok
    monkeypatch.setenv("HMMD_KIT_GUARD", "3")
    assert oracle("greedy") == f"skipped ({table} exceeds table guard 3)"
    monkeypatch.delenv("HMMD_KIT_GUARD")
    solve = getattr(select, worse)

    def one_tenth(inst, weights=None):
        sol = solve(inst, weights)
        return replace(sol, objective=sol.objective / 10)

    monkeypatch.setattr(select, worse, one_tenth)
    assert run(capsys, *argv, "--method", "greedy") == (1, "", f"hmmdkit: error: oracle: {failure}\n")


#: command -> (payload with one part or pair offering actions x and y, oracle ok text, failure text)
TWO_ACTION_ORACLES = {
    "improve": (
        {
            "criteria": [{"id": "c"}],
            "parts": [{"id": "p1", "actions": [{"id": "x", "effect": [1], "cost": 1}, {"id": "y", "effect": [2], "cost": 1}]}],
            "budget": 5,
        },
        "ok (one action per part within budget)",
        "two actions selected for one part",
    ),
    "pipeline": (
        {
            **MINIMAL["pipeline"][0],
            "actions": [{"pair": ["e", "f"], "items": [{"id": "x", "value": [1], "cost": 1}, {"id": "y", "value": [2], "cost": 1}]}],
            "budget": 5,
        },
        "ok (stage-consistent selection)",
        "selected action costs do not add up to the total cost",
    ),
}


@pytest.mark.parametrize("command", sorted(TWO_ACTION_ORACLES))
def test_oracle_catches_two_actions_for_one_part(command, tmp_path, capsys, monkeypatch):
    import hmmdkit.select as select

    payload, ok, failure = TWO_ACTION_ORACLES[command]
    path = tmp_path / "p.json"
    path.write_text(problem_text(command, payload))
    argv = [command, "--input", str(path), "--oracle", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["diagnostics"]["oracle"] == ok
    solve = select.mckp_exact_dp

    def both_actions(inst, weights=None):
        (group,) = inst.groups
        sol = solve(inst, weights)
        return replace(
            sol, chosen=frozenset(it.id for it in group.items), total_cost=sum(it.cost for it in group.items)
        )

    monkeypatch.setattr(select, "mckp_exact_dp", both_actions)
    assert run(capsys, *argv) == (1, "", f"hmmdkit: error: oracle: {failure}\n")


def _with(payload, edit):
    payload = json.loads(json.dumps(payload))
    edit(payload)
    return payload


#: (command, payload, JSON path, message): action and budget errors found while parsing
ACTION_ERRORS = [
    (
        "improve",
        _with(CANONICAL["improve"], lambda p: p["parts"][0]["actions"].append({"id": "x1", "effect": [3, 4], "cost": 2})),
        "$.payload.parts[0]",
        "part 'p1': duplicate action ids: ['x1', 'x1']",
    ),
    (
        "improve",
        _with(CANONICAL["improve"], lambda p: p["parts"][0]["actions"][0].update(effect=[1])),
        "$.payload",
        "part 'p1', action 'x1': effect length mismatch",
    ),
    (
        "pipeline",
        _with(CANONICAL["pipeline"], lambda p: p["actions"][0]["items"].append({"id": "t1", "value": [2], "cost": 1})),
        "$.payload.actions[0]",
        "pair ('e1', 'f1'): duplicate action ids: ['t1', 't1']",
    ),
    ("improve", _with(CANONICAL["improve"], lambda p: p.update(budget=-3)), "$.payload", "budget must be nonnegative"),
    ("pipeline", _with(CANONICAL["pipeline"], lambda p: p.update(budget=-3)), "$.payload", "budget must be nonnegative"),
]


@pytest.mark.parametrize(
    "command, payload, where, message",
    ACTION_ERRORS,
    ids=["improve-dup", "improve-length", "pipeline-dup", "improve-budget", "pipeline-budget"],
)
def test_action_errors_name_their_json_path(command, payload, where, message, tmp_path, capsys):
    text = problem_text(command, payload)
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert exc.value.path == where
    path = tmp_path / "p.json"
    path.write_text(text)
    assert run(capsys, command, "--input", str(path)) == (3, "", f"hmmdkit: error: parse: {where}: {message}\n")
