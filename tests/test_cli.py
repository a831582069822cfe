import ast
import errno
import gc
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hmmdkit
from conftest import replace
from hmmdkit.cli import COMMANDS, main
from hmmdkit.probio import ParseError, fixture_path, parse_problem, parse_result, write_problem, write_result
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


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{", "byte 0: invalid start byte"),
    ('{"spec_version": 1}'.encode("utf-16"), "byte 0: invalid start byte"),
    (b'{"spec_version": 1, "problem_type": "morph\xe9"}', "byte 42: invalid continuation byte"),
], ids=["bom", "utf16", "latin1"])
def test_input_that_is_not_utf8_exits_3_with_its_byte_offset(data, message, tmp_path, capsys):
    path = tmp_path / "bad.morph"
    path.write_bytes(data)
    code, out, err = run(capsys, "synth", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == f"hmmdkit: error: parse: cannot read {path}: not UTF-8 text ({message})\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_id_holding_a_lone_surrogate_exits_3(fmt, tmp_path, capsys):
    # json.dumps writes the id as the escape "\ud800", which json.loads reads
    # back into a str that a text report cannot encode as UTF-8
    payload = json.loads(json.dumps(MINIMAL["morph"][0]))
    payload["tree"]["children"][0]["id"] = "\ud800"
    path = tmp_path / "p.morph"
    path.write_text(problem_text("morph", payload), encoding="ascii")
    code, out, err = run(capsys, "synth", "--input", str(path), "--format", fmt, "--output", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert err == (
        "hmmdkit: error: parse: $.payload.tree.children[0].id: not UTF-8 text: '\\ud800' holds a lone surrogate\n"
    )
    assert not (tmp_path / "out").exists()

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


@pytest.mark.parametrize(
    "weights, message",
    [
        ("1,2", "2 weights for 3 criteria"),
        ("1,-1,1", "criterion 'engineering': weight must be nonnegative"),
        ("0,0,0", "criterion weights must not all be zero"),
    ],
)
def test_bad_weights_follow_the_frame_rules(capsys, weights, message):
    assert run(capsys, "assign", "--input", ASSIGN, f"--weights={weights}") == (
        3, "", f"hmmdkit: error: parse: {message}\n"
    )


@pytest.mark.parametrize("weights", ["1,,2,3", ",1,2,3", "1,2,3,"], ids=["inner", "leading", "trailing"])
def test_every_weights_entry_must_be_a_number(capsys, weights):
    # an empty entry used to be dropped, so "1,,2,3" read as 1,2,3
    assert run(capsys, "assign", "--input", ASSIGN, f"--weights={weights}") == (
        2, "", "hmmdkit: error: usage: bad --weights: not a number: ''\n"
    )


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


def test_exact_assignment_runs_past_nine_agents(tmp_path, capsys, monkeypatch):
    # exact used to enumerate and exit 1 with "10 assigned agents exceed
    # guard 9"; greedy's oracle used to read "skipped (...)"
    agents = [f"s{i}" for i in range(10)]
    payload = {
        "criteria": [{"id": "c", "direction": "max", "weight": 1}],
        "agents": agents, "positions": ["p", "q"], "capacity": {"p": 5, "q": 5},
        "matrix": [[[i % 3], [i % 4]] for i in range(10)],
    }
    path = tmp_path / "a.json"
    path.write_text(problem_text("assign", payload))
    monkeypatch.setenv("HMMD_KIT_GUARD", "1")
    code, out, err = run(capsys, "assign", "--input", str(path), "--method", "exact", "--format", "json")
    assert code == 0, err
    assert len(parse_result(out).solution["solutions"][0]["pairs"]) == 10
    code, out, err = run(capsys, "assign", "--input", str(path), "--oracle", "--format", "json")
    assert code == 0, err
    assert parse_result(out).diagnostics["oracle"] == "ok (exact >= greedy)"
    code, out, err = run(capsys, "assign", "--input", str(path), "--method", "pareto")
    assert (code, err) == (1, "hmmdkit: error: solve: 10 assigned agents exceed guard 1\n")


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


def _mckp_with(tmp_path, budget="15", value="[24]"):
    # the fixture's second item of group A1V6 has value [24]; the budget is 15
    text = Path(MCKP).read_text(encoding="utf-8")
    text = json.dumps(json.loads(text)).replace('"budget": 15', f'"budget": {budget}', 1)
    text = text.replace('"value": [24]', f'"value": {value}', 1)
    path = tmp_path / "big.mckp"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("budget, value, where", [
    ("9" * 5000, "[24]", "$: malformed JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    ("15", '["1e5000"]', "$.payload.groups[0].items[1].value[0]: number out of range: '1e5000' has more than 4300 digits"),
], ids=["5000-digit budget", "value 1e5000"])
def test_numbers_past_the_digit_limit_fail_while_parsing(budget, value, where, tmp_path, capsys):
    # a 5,000-digit int made json.loads raise a bare ValueError, and "1e5000"
    # parsed, solved and then crashed the report writer
    code, out, err = run(capsys, "mckp", "--input", _mckp_with(tmp_path, budget, value), "--format", "json")
    assert (code, out) == (3, "")
    assert err.startswith(f"hmmdkit: error: parse: {where}") and err.count("\n") == 1


#: number strings with a run of more than 4,300 digits, and how their error quotes them
LONG_NUMBERS = {
    "4301 ones": ("1" * 4301, "'111111111111...1111111111111'"),
    "1/ and 5000 threes": ("1/" + "3" * 5000, "'1/3333333333...3333333333333'"),
    "0. and 5000 ones": ("0." + "1" * 5000, "'0.1111111111...1111111111111'"),
}


@pytest.mark.parametrize("text, quoted", LONG_NUMBERS.values(), ids=LONG_NUMBERS)
def test_long_number_strings_fail_as_out_of_range(text, quoted, tmp_path, capsys):
    # int() refuses more than 4,300 digits in a row, so these read as "not a
    # number" and quoted the whole value, a 4-5 KB line; the error now names
    # the digit limit and quotes 30 characters, in a file and in --weights
    message = f"number out of range: {quoted} has more than 4300 digits\n"
    path = _mckp_with(tmp_path, value=json.dumps([text]))
    assert run(capsys, "mckp", "--input", path) == (
        3, "", f"hmmdkit: error: parse: $.payload.groups[0].items[1].value[0]: {message}"
    )
    assert run(capsys, "assign", "--input", ASSIGN, f"--weights=1,2,{text}") == (
        2, "", f"hmmdkit: error: usage: bad --weights: {message}"
    )


def test_a_huge_exponent_fails_at_once(tmp_path):
    # Fraction("1e999999999") would build 10**999999999 first; a child with
    # a timeout keeps a regression from hanging the suite
    path = _mckp_with(tmp_path, value='["1e999999999"]')
    env = {**os.environ, "PYTHONPATH": str(Path(hmmdkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "hmmdkit", "mckp", "--input", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "hmmdkit: error: parse: $.payload.groups[0].items[1].value[0]: "
        "number out of range: '1e999999999' has more than 4300 digits\n"
    )


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


@pytest.mark.parametrize("method", ["utility", "pareto", "outranking", "ideal"])
@pytest.mark.parametrize(
    "p, q, message",
    [
        (2, -1, "concordance threshold p=2 outside [0, 1]"),
        ("0.6", "3/2", "discordance threshold q=3/2 outside [0, 1]"),
    ],
)
def test_outranking_thresholds_are_checked_while_parsing(method, p, q, message, tmp_path, capsys):
    # only outranking reads p and q; the other methods used to ignore bad ones
    path = tmp_path / "rank.json"
    path.write_text(problem_text("rank", {**CANONICAL["rank"], "p": p, "q": q}))
    assert run(capsys, "rank", "--input", str(path), "--method", method) == (
        3, "", f"hmmdkit: error: parse: $.payload: {message}\n"
    )


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


def child_env():
    """The environment of a child that imports the same hmmdkit as this
    process, installed or not, with stdout buffered."""
    src = str(Path(hmmdkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_module_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hmmdkit", "synth", "--input", COURSE, "--format", "json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    result = parse_result(proc.stdout)
    root = next(n for n in result.solution["nodes"] if n["id"] == "S")
    assert len(root["composites"]) == 4


def _kernel_ladder():
    path = Path(__file__).parents[1] / "tools" / "kernel_ladder.py"
    spec = importlib.util.spec_from_file_location("kernel_ladder", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: a module-global text stream on the child's stderr (a pipe, so not line
#: buffered) holding an unflushed line; the stream's __del__ closes it and
#: so writes the line, when the interpreter's teardown frees the module
TEARDOWN_SENTINEL = 'sentinel = open(2, "w", closefd=False)\nsentinel.write("torn down\\n")\n'


def test_process_entry_runs_the_atexit_hooks_and_skips_teardown(tmp_path, capsys):
    # the child runs python -m hmmdkit through runpy under an atexit probe
    # that runs after every other hook, as tools/kernel_ladder.py times it
    program = TEARDOWN_SENTINEL + _kernel_ladder().PROBED_MAIN
    rng = random.Random(2000)  # 2,000 alternatives: a JSON report over 64 KiB
    alternatives = [{"id": f"a{i}", "estimates": [rng.randint(0, 9) for _ in range(3)]} for i in range(2000)]
    (tmp_path / "big.rank").write_text(problem_text("rank", {"criteria": [{"id": c} for c in "xyz"],
                                                             "alternatives": alternatives}))
    (tmp_path / "infeasible.mckp").write_text(problem_text("mckp", {
        "criteria": [{"id": "v"}], "groups": [{"id": "g", "items": [{"id": "a", "value": [1], "cost": 9}]}],
        "budget": 4, "group_rule": "exactly_one",
    }))
    output = tmp_path / "report.json"

    def written():
        """The --output file's bytes, or None; the file is then removed."""
        data = output.read_bytes() if output.exists() else None
        output.unlink(missing_ok=True)
        return data

    for code, argv in [
        (0, ["synth", "--input", COURSE, "--format", "json"]),
        (0, ["rank", "--input", str(tmp_path / "big.rank"), "--format", "json"]),
        (0, ["synth", "--input", COURSE, "--format", "json", "--output", str(output)]),
        (1, ["mckp", "--input", str(tmp_path / "infeasible.mckp")]),
        (2, ["synth"]),
        (3, ["synth", "--input", str(tmp_path / "missing.morph")]),
    ]:
        proc = subprocess.run([sys.executable, "-c", program, *argv], capture_output=True, env=child_env())
        stderr = proc.stderr.decode()
        assert "torn down" not in stderr, argv
        *lines, probe = stderr.splitlines(keepends=True)
        float(probe)  # the atexit probe's clock reading ends stderr
        child = proc.returncode, proc.stdout.decode(), "".join(lines), written()
        assert child == (*run(capsys, *argv), written()), argv
        assert child[0] == code, argv
        assert (child[3] is not None) == ("--output" in argv), argv
        if argv[0] == "rank":
            assert len(proc.stdout) > 1 << 16  # more than a pipe's buffer holds


@pytest.mark.parametrize("code, argv", [(0, ["synth", "--input", COURSE]), (2, ["synth"])], ids=["ok", "usage"])
def test_process_entry_keeps_the_code_when_stderr_is_closed(code, argv, capsys):
    # with fd 2 closed at start, the interpreter sets sys.stderr to None; the
    # error line is then dropped, not printed to stdout with the report (an
    # unbuffered stdout, which os._exit cannot drop, would show it)
    proc = subprocess.run([sys.executable, "-m", "hmmdkit", *argv], stdout=subprocess.PIPE,
                          env={**child_env(), "PYTHONUNBUFFERED": "1"}, preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout.decode()) == (code, run(capsys, *argv)[1])


@pytest.mark.parametrize("code, argv", [(2, ["synth"]), (3, ["synth", "--input", "missing.morph"])],
                         ids=["usage", "parse"])
def test_process_entry_keeps_the_code_when_stderr_is_full(code, argv, tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "hmmdkit", *argv], stdout=subprocess.PIPE, stderr=full,
                              env=child_env(), cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (code, b"")


#: a report that fills more than stdout's buffer, one that fits in it, and help
UNWRITABLE = {
    "large": ["synth", "--input", COURSE, "--format", "json"],
    "small": ["tsp", "--input", "{tsp}", "--method", "nearest", "--format", "text"],
    "help": ["--help"],
}


def write_to_unwritable_stdout(tmp_path, report, stdout, env, **options):
    """Run ``python -m hmmdkit`` on the UNWRITABLE ``report`` with ``stdout``
    as its standard output and ``options`` for ``subprocess.run``; return
    the exit code and stderr."""
    tsp = tmp_path / "p.tsp"
    tsp.write_text(problem_text("tsp", MINIMAL["tsp"][0]))
    argv = [arg.format(tsp=tsp) for arg in UNWRITABLE[report]]
    proc = subprocess.run([sys.executable, "-m", "hmmdkit", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env,
                          **options)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("report", sorted(UNWRITABLE))
def test_a_report_to_a_full_device_exits_1_with_one_line(report, unbuffered, tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {**child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
    with open("/dev/full", "wb") as full:
        got = write_to_unwritable_stdout(tmp_path, report, full, env)
    assert got == (1, f"hmmdkit: error: output: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("report", sorted(UNWRITABLE))
def test_a_report_to_a_closed_pipe_exits_1_with_one_line(report, tmp_path):
    # the read end is closed before the child starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    try:
        got = write_to_unwritable_stdout(tmp_path, report, write, child_env())
    finally:
        os.close(write)
    assert got == (1, f"hmmdkit: error: output: cannot write stdout: {os.strerror(errno.EPIPE)}\n")


@pytest.mark.parametrize("report", sorted(UNWRITABLE))
def test_a_report_to_a_closed_stdout_exits_1_with_one_line(report, tmp_path):
    # with fd 1 closed at start, the interpreter sets sys.stdout to None
    got = write_to_unwritable_stdout(tmp_path, report, None, child_env(), preexec_fn=lambda: os.close(1))
    assert got == (1, f"hmmdkit: error: output: cannot write stdout: {os.strerror(errno.EBADF)}\n")


def test_a_report_that_stdout_cannot_encode_exits_1_with_one_line(tmp_path, capsys):
    path = tmp_path / "p.tsp"
    path.write_text(problem_text("tsp", {**MINIMAL["tsp"][0], "ids": ["\u00e9", "b", "c"]}))
    argv = ["tsp", "--input", str(path), "--format", "text"]
    with pytest.raises(UnicodeEncodeError) as exc:
        run(capsys, *argv)[1].encode("ascii")
    proc = subprocess.run([sys.executable, "-m", "hmmdkit", *argv], capture_output=True,
                          env={**child_env(), "PYTHONIOENCODING": "ascii"})
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
        1, b"", f"hmmdkit: error: output: cannot write stdout: {exc.value}\n"
    )


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    # tests, perfbench --trace and tools/report_diff.py run main in process
    before = gc.get_freeze_count(), gc.isenabled()
    for command, (ptype, *_) in sorted(COMMANDS.items()):
        path = tmp_path / f"{ptype}.json"
        path.write_text(problem_text(ptype, MINIMAL[ptype][0]))
        assert run(capsys, command, "--input", str(path))[0] == 0, command
        assert (gc.get_freeze_count(), gc.isenabled()) == before, command


def test_every_process_entry_names_the_same_function():
    tomllib = pytest.importorskip("tomllib")
    package = Path(hmmdkit.__file__).parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    script = pyproject["project"]["scripts"]["hmmdkit"]
    module, name = script.split(":")
    assert module == "hmmdkit.cli"
    main_module = ast.parse((package / "__main__.py").read_text(encoding="utf-8"))
    assert [ast.unparse(node) for node in main_module.body] == [f"from .cli import {name}", f"{name}()"]
    guard = [
        node for node in ast.parse((package / "cli.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(node) for block in guard for node in block.body] == [f"{name}()"]
    assert callable(getattr(hmmdkit.cli, name))


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
        "24 table cells",
        "knapsack_greedy",
        "greedy objective 1/10 below 0.75 x exact 1",
    ),
    "mckp": (
        {"criteria": [{"id": "c"}], "groups": [{"id": "g", "items": SELECTION_ITEMS}], "budget": 5},
        "ok (exact >= greedy)",
        "6 table cells",
        "mckp_exact_dp",
        "exact objective 1/10 below greedy 1",
    ),
}


@pytest.mark.parametrize("command", sorted(SELECTION_ORACLES))
def test_selection_oracle_texts(command, tmp_path, capsys, monkeypatch):
    owner = importlib.import_module(f"hmmdkit.{command}")

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
    assert oracle("greedy") == f"skipped ({table} exceed guard 3)"
    monkeypatch.delenv("HMMD_KIT_GUARD")
    solve = getattr(owner, worse)

    def one_tenth(inst, weights=None):
        sol = solve(inst, weights)
        return replace(sol, objective=sol.objective / 10)

    monkeypatch.setattr(owner, worse, one_tenth)
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
    import hmmdkit.improve as improve

    payload, ok, failure = TWO_ACTION_ORACLES[command]
    path = tmp_path / "p.json"
    path.write_text(problem_text(command, payload))
    argv = [command, "--input", str(path), "--oracle", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["diagnostics"]["oracle"] == ok
    solve = improve.mckp_exact_dp

    def both_actions(inst, weights=None):
        (group,) = inst.groups
        sol = solve(inst, weights)
        return replace(
            sol, chosen=frozenset(it.id for it in group.items), total_cost=sum(it.cost for it in group.items)
        )

    monkeypatch.setattr(improve, "mckp_exact_dp", both_actions)
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
        "part 'p1': duplicate action id 'x1'",
    ),
    (
        "improve",
        _with(CANONICAL["improve"], lambda p: p["parts"][0]["actions"][0].update(effect=[1])),
        "$.payload",
        "part 'p1', action 'x1': 1 values for 2 criteria",
    ),
    (
        "pipeline",
        _with(CANONICAL["pipeline"], lambda p: p["actions"][0]["items"].append({"id": "t1", "value": [2], "cost": 1})),
        "$.payload.actions[0]",
        "pair ('e1', 'f1'): duplicate action id 't1'",
    ),
    ("improve", _with(CANONICAL["improve"], lambda p: p.update(budget=-3)), "$.payload.budget", "budget must be nonnegative"),
    ("pipeline", _with(CANONICAL["pipeline"], lambda p: p.update(budget=-3)), "$.payload.budget", "budget must be nonnegative"),
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


def test_repeated_key_exits_3(tmp_path, capsys):
    # json.loads alone keeps the last budget and solves with 15
    path = tmp_path / "p.json"
    path.write_text(Path(MCKP).read_text().replace('"budget": 15', '"budget": 1, "budget": 15', 1))
    assert run(capsys, "mckp", "--input", str(path)) == (3, "", "hmmdkit: error: parse: $.payload: duplicate key 'budget'\n")


#: subcommand -> (problem type, payload keys after the tree, the bottom node,
#: and an internal node's text before and after its one chain child, where
#: "#" stands for its level)
CHAIN = {
    "synth": ("morph", ', "compat": []', '{"id": "bottom", "alternatives": [{"id": "a", "priority": 1}]}',
              '{"id": "n#", "children": [', ', {"id": "l#", "alternatives": [{"id": "x", "priority": 2}]}]}'),
    "integrate": ("integrate", "", '{"id": "bottom", "scale": {"lo": 1, "hi": 2}, "estimate": 1}',
                  '{"id": "n#", "scale": {"lo": 1, "hi": 2}, "children": [',
                  '], "table": [{"inputs": [1], "output": 1}, {"inputs": [2], "output": 2}]}'),
}


def chain_text(command, depth):
    """A problem file whose tree is a chain ``depth`` internal nodes deep,
    written as text: json.dumps would reach the recursion limit itself."""
    ptype, rest, bottom, head, tail = CHAIN[command]
    levels = [str(i) for i in range(depth)]
    tree = "".join(head.replace("#", i) for i in levels) + bottom
    tree += "".join(tail.replace("#", i) for i in reversed(levels))
    return f'{{"spec_version": 1, "problem_type": "{ptype}", "payload": {{"tree": {tree}{rest}}}}}'


@pytest.mark.parametrize("command", sorted(CHAIN))
def test_input_nested_too_deeply_exits_3_with_one_line(command, tmp_path, capsys):
    # json.loads and the codec's recursion through a tree each reach the
    # recursion limit on a deep enough chain
    path = tmp_path / "deep.json"
    for depth in (400, 1000):
        path.write_text(chain_text(command, depth))
        assert run(capsys, command, "--input", str(path)) == (3, "", "hmmdkit: error: parse: $: nested too deeply\n")
    path.write_text(chain_text(command, 100))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, err) == (0, "")
    assert "n99" in out


def test_the_deepest_chain_parse_problem_reads_writes_back():
    # write_problem recurses through a tree in the same three frames a level
    # as parse_problem, so it writes back every tree the reader takes
    lo, hi = 100, 400  # a chain parse_problem reads, and one it refuses
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_problem(chain_text("synth", mid))
            lo = mid
        except ParseError:
            hi = mid
    text = write_problem(parse_problem(chain_text("synth", lo)))
    assert write_problem(parse_problem(text)) == text


# ------------------------------------------------------------- front end

GENERAL_HELP = """\
usage: hmmdkit <subcommand> --input FILE [--method M] [--format json|text] [--output FILE] [--weights w1,w2,...] [--oracle]

Multicriteria ranking, selection and morphological synthesis toolkit.

subcommand  problem type  methods (default first)
rank        rank          utility, pareto, outranking, ideal
knapsack    knapsack      greedy, exact
mckp        mckp          greedy, exact
cluster     cluster       the file's linkage, or single, complete, average
assign      assign        greedy, exact, pareto
tsp         tsp           two_opt, nearest, brute
synth       morph         synthesis
trajectory  trajectory    enumerate
integrate   integrate     tables
pipeline    pipeline      chain
improve     improve       auto

flags:
  --input FILE          problem file to solve (required)
  --method M            one of the subcommand's methods
  --format json|text    report format (default: text)
  --output FILE         write the report here (default: stdout)
  --weights w1,w2,...   one scalarization weight per criterion (knapsack, mckp, assign greedy/exact, pipeline, improve)
  --oracle              cross-check against the exact counterpart
  -h, --help            show this help and exit
"""


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["-h", "synth"], ["--help", "--input", "x"]])
def test_general_help(capsys, argv):
    assert run(capsys, *argv) == (0, GENERAL_HELP, "")


def _subcommand_help(command, weights):
    lines = GENERAL_HELP.splitlines()
    row = next(line for line in lines if line.split(" ", 1)[0] == command)
    usage = lines[0].replace("<subcommand>", command)
    flags = lines[-8:]
    if weights is None:
        usage = usage.replace(" [--weights w1,w2,...]", "")
        del flags[5]
    else:
        flags[5] = flags[5][: flags[5].index("(")] + f"({weights})"
    return "\n".join([usage, "", lines[4], row, "", *flags]) + "\n"


#: subcommand -> what its help lists for --weights (None: no --weights flag)
HELP_WEIGHTS = {
    "rank": None, "knapsack": "knapsack", "mckp": "mckp", "cluster": None,
    "assign": "assign greedy/exact", "tsp": None, "synth": None, "trajectory": None,
    "integrate": None, "pipeline": "pipeline", "improve": "improve",
}


def test_subcommand_help_texts(capsys):
    assert sorted(HELP_WEIGHTS) == sorted(COMMANDS)
    assert run(capsys, "assign", "--help")[1] == """\
usage: hmmdkit assign --input FILE [--method M] [--format json|text] [--output FILE] [--weights w1,w2,...] [--oracle]

subcommand  problem type  methods (default first)
assign      assign        greedy, exact, pareto

flags:
  --input FILE          problem file to solve (required)
  --method M            one of the subcommand's methods
  --format json|text    report format (default: text)
  --output FILE         write the report here (default: stdout)
  --weights w1,w2,...   one scalarization weight per criterion (assign greedy/exact)
  --oracle              cross-check against the exact counterpart
  -h, --help            show this help and exit
"""
    assert run(capsys, "synth", "--help")[1] == """\
usage: hmmdkit synth --input FILE [--method M] [--format json|text] [--output FILE] [--oracle]

subcommand  problem type  methods (default first)
synth       morph         synthesis

flags:
  --input FILE          problem file to solve (required)
  --method M            one of the subcommand's methods
  --format json|text    report format (default: text)
  --output FILE         write the report here (default: stdout)
  --oracle              cross-check against the exact counterpart
  -h, --help            show this help and exit
"""
    for command, weights in HELP_WEIGHTS.items():
        assert run(capsys, command, "--help") == (0, _subcommand_help(command, weights), ""), command


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "-h"],
        ["synth", "--input", COURSE, "-h"],
        ["synth", "-h", "--input", COURSE],
        ["synth", "--frobnicate", "--help"],
        ["synth", "--input", "-h"],
    ],
    ids=["alone", "last", "first", "after-an-error", "as-a-value"],
)
def test_help_anywhere_after_the_subcommand(capsys, argv):
    assert run(capsys, *argv) == (0, _subcommand_help("synth", None), "")


FLAG_LIST = "--input, --method, --format, --output, --weights, --oracle"
COMMAND_LIST = "rank, knapsack, mckp, cluster, assign, tsp, synth, trajectory, integrate, pipeline, improve"

#: (argv, usage message): every usage error of the front end
USAGE_ERRORS = [
    ([], f"missing subcommand (choose from: {COMMAND_LIST})"),
    (["bogus", "--input", COURSE], f"unknown subcommand 'bogus' (choose from: {COMMAND_LIST})"),
    (["bogus", "-h"], f"unknown subcommand 'bogus' (choose from: {COMMAND_LIST})"),
    (["--input", COURSE, "synth"], f"unknown subcommand '--input' (choose from: {COMMAND_LIST})"),
    (["synth"], "synth needs --input FILE"),
    (["synth", "--input"], "--input needs a value"),
    (["synth", "--input", COURSE, "--format"], "--format needs a value"),
    (["synth", "--input", COURSE, "--output", "--oracle"], "--output needs a value"),
    (["synth", "--input", "--format", "json"], "--input needs a value"),
    (["synth", "--inp", COURSE], f"unknown argument '--inp' for synth (flags: {FLAG_LIST})"),
    (["synth", "--input", COURSE, "--orac"], f"unknown argument '--orac' for synth (flags: {FLAG_LIST})"),
    (["synth", "-i", COURSE], f"unknown argument '-i' for synth (flags: {FLAG_LIST})"),
    (["synth", "--input", COURSE, "extra"], f"unknown argument 'extra' for synth (flags: {FLAG_LIST})"),
    (["synth", "--input", COURSE, "--seed=1"], f"unknown argument '--seed=1' for synth (flags: {FLAG_LIST})"),
    (["synth", "--input", COURSE, "--input", COURSE], "--input given twice"),
    (["synth", "--input", COURSE, "--oracle", "--oracle"], "--oracle given twice"),
    (["assign", "--input", ASSIGN, "--method=exact", "--method", "greedy"], "--method given twice"),
    (["synth", "--input", COURSE, "--oracle=1"], "--oracle takes no value"),
    (["synth", "--input", COURSE, "--format", "xml"], "unknown format 'xml' (choose from: json, text)"),
    (["synth", "--input", COURSE, "--format="], "--format needs a value"),
    (["tsp", "--input", COURSE, "--method", "bogus"], "unknown method 'bogus' for tsp (choose from: nearest, two_opt, brute)"),
    (["synth", "--input", COURSE, "--weights", "1"], "--weights is not applicable to synth"),
    (["cluster", "--input", COURSE, "--weights", "1"], "--weights is not applicable to cluster"),
    (["assign", "--input", ASSIGN, "--method", "pareto", "--weights", "1,2,3"],
     "--weights is not applicable to the pareto method"),
    (["assign", "--input", ASSIGN, "--weights", "zero"], "bad --weights: not a number: 'zero'"),
    (["rank", "--input", ASSIGN], "subcommand 'rank' expects a 'rank' file, got 'assign'"),
    # an empty value used to mean the default method, stdout, or a file named ''
    (["synth", "--input", COURSE, "--method="], "--method needs a value"),
    (["synth", "--input", COURSE, "--output="], "--output needs a value"),
    (["synth", "--input="], "--input needs a value"),
    (["assign", "--input", ASSIGN, "--weights="], "--weights needs a value"),
    (["synth", "--input", COURSE, "--method", ""], "--method needs a value"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"hmmdkit: error: usage: {message}\n")


def test_a_value_may_follow_an_equals_sign(capsys):
    spaced = run(capsys, "assign", "--input", ASSIGN, "--method", "exact", "--weights", "1,2,3", "--format", "json")
    joined = run(capsys, "assign", f"--input={ASSIGN}", "--method=exact", "--weights=1,2,3", "--format=json")
    assert spaced[0] == 0
    assert joined == spaced


def test_negative_weights_reach_the_frame_rule(capsys):
    # argparse read "-1,2,3" as a flag and exited 2 with "expected one argument"
    for argv in (["--weights", "-1,2,3"], ["--weights=-1,2,3"]):
        assert run(capsys, "assign", "--input", ASSIGN, *argv) == (
            3, "", "hmmdkit: error: parse: criterion 'theoretical': weight must be nonnegative\n"
        )


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["hmmdkit", "synth", "--input", COURSE, "--format", "json"])
    assert main() == 0
    assert capsys.readouterr().out == run(capsys, "synth", "--input", COURSE, "--format", "json")[1]


def test_report_diff_finds_no_difference_between_a_tree_and_itself(tmp_path):
    tool = Path(__file__).parents[1] / "tools" / "report_diff.py"
    src = str(Path(hmmdkit.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, str(tool), "--tree", f"one={src}", "--tree", f"two={src}",
         "--mutants", "1", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["identical"] == summary["cases"]
    assert summary["stderr_only"] == summary["accepted_changes"] == summary["other_changes"] == []
    # 36 benchmark inputs and 4 fixtures, one mutant of each with one change and one with two
    assert summary["cases"]["mutant"] == 2 * 40
    assert summary["cases"]["write"] == 40 + 2 * 40
    assert summary["exit_codes"]["command"] == {"0": summary["cases"]["command"]}
    assert set(summary["exit_codes"]["argv"]) == {"0", "2", "3"}
