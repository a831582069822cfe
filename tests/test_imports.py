"""The package loads submodules on first use, each CLI subcommand
imports only the solver modules it runs and none of the slow-to-import
standard modules in NEVER, the exact-number layer and its standard
modules load only when a file's values need them, and the runtime needs
nothing beyond the standard library."""

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hmmdkit
from hmmdkit.cli import COMMANDS
from hmmdkit.probio import OWNERS, load_fixture
from test_probio import MINIMAL, problem_text

BASE = {"hmmdkit", "hmmdkit.cli", "hmmdkit.core", "hmmdkit.probio"}
CRITERIA = "hmmdkit.criteria"
EXACT = "hmmdkit.exact"
#: what every run of a weighted problem type loads besides its owner
WEIGHTED = {CRITERIA, EXACT}
#: the standard modules that importing fractions loads
NUMERIC = {"fractions", "decimal", "numbers"}

#: subcommand -> every hmmdkit module a run of it may load
LOADS = {
    "rank": BASE | WEIGHTED | {"hmmdkit.rank"},
    "knapsack": BASE | WEIGHTED | {"hmmdkit.select", "hmmdkit.knapsack"},
    "mckp": BASE | WEIGHTED | {"hmmdkit.select", "hmmdkit.mckp"},
    "cluster": BASE | {EXACT, "hmmdkit.cluster"},
    "assign": BASE | WEIGHTED | {"hmmdkit.assign"},
    "tsp": BASE | {EXACT, "hmmdkit.route"},
    "synth": BASE | {"hmmdkit.morph", "hmmdkit.synth"},
    "trajectory": BASE | {"hmmdkit.morph", "hmmdkit.trajectory"},
    "integrate": BASE | {"hmmdkit.integrate"},
    "pipeline": BASE | WEIGHTED | {
        "hmmdkit.pipeline", "hmmdkit.improve", "hmmdkit.assign", "hmmdkit.cluster", "hmmdkit.select", "hmmdkit.mckp"
    },
    "improve": BASE | WEIGHTED | {"hmmdkit.improve", "hmmdkit.select", "hmmdkit.mckp"},
}

#: old import path -> {moved name that perfbench reads from it: its home}
COMPAT = {
    "core": {
        **dict.fromkeys(("CriteriaFrame", "Criterion", "Direction"), "criteria"),
        **dict.fromkeys(("normalize_estimates", "pareto_layers"), "rank"),
        "EstimateVector": "exact",
    },
    "frameworks": {
        **dict.fromkeys(("Stage", "TrajectorySpec", "design_trajectory"), "trajectory"),
        "IntegrationNode": "integrate",
        **dict.fromkeys(("PairActions", "ThreeSetSpec", "run_three_set_pipeline"), "pipeline"),
        **dict.fromkeys(("ImprovementPart", "ImprovementSpec", "plan_improvement"), "improve"),
    },
    "select": {
        **dict.fromkeys(("KnapsackInstance", "knapsack_exact", "knapsack_greedy"), "knapsack"),
        **dict.fromkeys(("Group", "MckpInstance", "mckp_exact_dp", "mckp_greedy"), "mckp"),
    },
    "probio": {f"{ptype.capitalize()}Problem": owner for ptype, owner in OWNERS.items()},
}

#: standard modules no subcommand may load: records are built by
#: core.frozen, not dataclasses (which imports inspect), annotations need
#: no typing at run time, cli reads its flags without argparse (which
#: imports gettext, locale and shutil), and probio reads and writes
#: through _json's scanner and escaper, not the json package
NEVER = {"argparse", "dataclasses", "gettext", "inspect", "json", "locale", "shutil", "typing"}

#: the child prints a repr, so it imports nothing of its own after the body
CHILD = """
import sys
{body}
print(sorted(m for m in sys.modules if m.split(".")[0] in {tops}))
"""


def loaded_in_child(body: str, *argv: str) -> list[str]:
    """The hmmdkit modules, and those of NEVER and NUMERIC and their
    submodules, that a fresh interpreter holds after running ``body``."""
    src = str(Path(hmmdkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # -S: a .pth file in site-packages may import typing before hmmdkit runs
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.format(body=body, tops=sorted(NEVER | NUMERIC | {"hmmdkit"})), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_bare_import_loads_no_submodule():
    assert loaded_in_child("import hmmdkit") == ["hmmdkit"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_loads_only_its_modules(command, tmp_path):
    ptype = COMMANDS[command][0]
    path = tmp_path / f"{ptype}.json"
    path.write_text(problem_text(ptype, MINIMAL[ptype][0]))
    body = "from hmmdkit.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = set(loaded_in_child(body, command, "--input", str(path), "--output", str(tmp_path / "out")))
    # nothing of NEVER, and fractions exactly when the exact-number layer loads
    assert loaded == LOADS[command] | (NUMERIC if EXACT in LOADS[command] else set())


STAGE_TIME_HALF = {"stages": [{"time": "1/2", "decisions": [{"id": "a", "priority": 1}]}], "compat": []}


@pytest.mark.parametrize("command, ptype, payload, loads", [
    ("synth", "morph", MINIMAL["morph"][0], False),
    ("trajectory", "trajectory", MINIMAL["trajectory"][0], False),
    ("integrate", "integrate", MINIMAL["integrate"][0], False),
    ("synth", "morph", "student_strategy.morph", True),
    ("trajectory", "trajectory", STAGE_TIME_HALF, True),
], ids=["synth", "trajectory", "integrate", "synth-estimates", "trajectory-time-1/2"])
def test_exact_numbers_load_only_when_a_value_needs_them(command, ptype, payload, loads, tmp_path):
    # an integer-only morph, trajectory or integrate file needs no Fraction,
    # so its run loads neither hmmdkit.exact nor fractions, decimal and
    # numbers; an alternative's estimates or a stage time of 1/2 loads them
    text = load_fixture(payload) if isinstance(payload, str) else problem_text(ptype, payload)
    path = tmp_path / f"{ptype}.json"
    path.write_text(text)
    body = "from hmmdkit.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = set(loaded_in_child(body, command, "--input", str(path), "--output", str(tmp_path / "out")))
    assert loaded & (NUMERIC | {EXACT}) == (NUMERIC | {EXACT} if loads else set())


def test_runs_without_weighted_sums_load_no_scalar():
    # the weighted sums live in criteria now; a run that ranks by
    # dominance, or not at all, never compiles them, and the old scalar
    # module is gone from every run
    home = hmmdkit.scalarize.__module__
    assert home == CRITERIA == hmmdkit.equal_weight_frame.__module__
    assert importlib.util.find_spec("hmmdkit.scalar") is None
    for command in ("synth", "cluster", "tsp", "trajectory", "integrate"):
        assert home not in LOADS[command], command
    assert not any("hmmdkit.scalar" in loads for loads in LOADS.values())


def test_runs_without_criteria_load_no_criteria():
    # criteria holds the frames, their rules and the weighted sums; a run
    # whose file has no criteria never compiles them, and no run loads the
    # frameworks facade
    for command in ("synth", "trajectory", "integrate", "cluster", "tsp"):
        assert CRITERIA not in LOADS[command], command
    for command in ("synth", "trajectory", "integrate"):
        assert EXACT not in LOADS[command], command
    assert not any("hmmdkit.frameworks" in loads for loads in LOADS.values())


@pytest.mark.parametrize("old", sorted(COMPAT))
def test_moved_names_keep_their_old_import_path(old):
    module = importlib.import_module(f"hmmdkit.{old}")
    for name, home in COMPAT[old].items():
        assert getattr(module, name) is getattr(importlib.import_module(f"hmmdkit.{home}"), name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def old_paths() -> dict[str, set[str]]:
    """module -> the names it only re-exports: its PEP 562 table, and every
    name that frameworks imports from a home."""
    package = Path(hmmdkit.__file__).parent
    paths = {}
    for path in package.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            moved = getattr(importlib.import_module(f"hmmdkit.{path.stem}"), "_MOVED", {})
            paths[path.stem] = set(moved)
    paths["frameworks"] |= {
        alias.asname or alias.name
        for node in ast.parse((package / "frameworks.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return {module: names for module, names in paths.items() if names}


def test_no_file_outside_perfbench_reads_an_old_path():
    # an old import path stays only while the benchmark's harness reads it,
    # so the package, its tests and its tools import each name from its home
    old = old_paths()
    root = Path(__file__).parents[1]
    files = [*sorted((root / "src" / "hmmdkit").glob("*.py")), *sorted((root / "tests").glob("*.py")),
             *sorted((root / "tools").glob("*.py"))]
    found = []
    for path in files:
        in_package = path.parent.name == "hmmdkit"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> the hmmdkit module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and alias.name.startswith("hmmdkit."):
                        bound[alias.asname] = alias.name.removeprefix("hmmdkit.")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 1 and in_package:
                    module = f"hmmdkit.{module}".rstrip(".")
                elif node.level:
                    continue
                if module == "hmmdkit":
                    bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
                elif module.startswith("hmmdkit."):
                    name = module.removeprefix("hmmdkit.")
                    found += [f"{path.name}:{node.lineno} {name}.{alias.name}"
                              for alias in node.names if alias.name in old.get(name, ())]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = ast.unparse(node.value)
                name = base.removeprefix("hmmdkit.") if base.startswith("hmmdkit.") else bound.get(base)
                if node.attr in old.get(name, ()):
                    found.append(f"{path.name}:{node.lineno} {name}.{node.attr}")
    assert not found, "\n".join(found)


@pytest.mark.parametrize("argv", [["--help"], ["synth", "-h"], ["pipeline", "--help"]])
def test_only_help_loads_the_help_module(argv):
    # no subcommand run loads hmmdkit.help (LOADS above); asking for help
    # loads it and no solver module
    body = (
        "import contextlib, io\nfrom hmmdkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    assert main(sys.argv[1:]) == 0"
    )
    assert set(loaded_in_child(body, *argv)) == BASE | {"hmmdkit.help"}


def test_frameworks_reexports_the_trajectory_names():
    import hmmdkit.frameworks
    import hmmdkit.trajectory

    for name in ("Stage", "TrajectorySpec", "design_trajectory"):
        assert getattr(hmmdkit.frameworks, name) is getattr(hmmdkit.trajectory, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        hmmdkit.frameworks.no_such_name


def test_every_export_is_its_submodule_object():
    assert len(hmmdkit.__all__) == len(set(hmmdkit.__all__))
    for name in hmmdkit.__all__:
        value = getattr(hmmdkit, name)
        assert value.__module__.startswith("hmmdkit.")
        assert value is getattr(sys.modules[value.__module__], name)


def test_dir_lists_exports_and_unknown_names_raise():
    assert set(hmmdkit.__all__) <= set(dir(hmmdkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        hmmdkit.no_such_name
    assert not hasattr(hmmdkit, "no_such_name")
    from hmmdkit import MorphSystem

    assert MorphSystem is hmmdkit.morph.MorphSystem


def test_readme_synthesis_session_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    session = re.search(r"A minimal synthesis session:\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(session, {})
    assert out.getvalue().count("\n") >= 1


def test_runtime_imports_only_the_standard_library():
    # the test environment may hold third-party packages, so a stray import
    # of one would pass every other test
    for path in sorted(Path(hmmdkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "hmmdkit", f"{path.name} imports {name}"


def test_uniqueness_rule_lives_only_in_core():
    # core.check_unique is the one `len(set(ids)) != len(ids)` test; a record
    # that writes its own copy would also write its own message
    for path in sorted(Path(hmmdkit.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                for side in (node.left, *node.comparators):
                    assert not ast.unparse(side).startswith("len(set("), (
                        f"{path.name}:{node.lineno} repeats core.check_unique"
                    )


def test_parse_errors_are_made_only_by_the_file_readers():
    # a codec or a build raises a plain ValidationError, and the containers
    # it passes out of put its path together; a ParseError made anywhere
    # else would carry a path of its own
    readers = {"_read", "_envelope", "parse_problem", "parse_result"}
    for path in sorted(Path(hmmdkit.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "with_path" not in text, path.name
        tree = ast.parse(text)
        exempt = set()
        if path.name == "probio.py":
            functions = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in readers]
            assert {f.name for f in functions} == readers
            exempt = {id(node) for f in functions for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in exempt:
                assert not ast.unparse(node.func).endswith("ParseError"), (
                    f"{path.name}:{node.lineno} makes a ParseError outside probio's file readers"
                )


def test_orientation_lives_only_in_criteria_oriented():
    # criteria.oriented is the one place a criterion's direction is read; a
    # solver that tests a direction itself would flip minimized values again
    for path in sorted(Path(hmmdkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "criteria.py":
            (oriented,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "oriented"]
            exempt = {id(node) for node in ast.walk(oriented)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in exempt:
                text = ast.unparse(node)
                assert "Direction.MAXIMIZE" not in text and "Direction.MINIMIZE" not in text, (
                    f"{path.name}:{node.lineno} reads a criterion's direction outside criteria.oriented"
                )


def _imports_cli(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.endswith("cli") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").endswith("cli") or any(alias.name == "cli" for alias in node.names)
    return False


def test_each_report_lives_beside_its_solver():
    # a run compiles the whole of cli.py, so it holds no subcommand's report
    # code, and each solver module's report needs nothing from the CLI
    package = Path(hmmdkit.__file__).parent
    cli_tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    assert not [
        node.name for node in ast.walk(cli_tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_solve_")
    ]
    for path in sorted(package.glob("*.py")):
        if path.name not in ("cli.py", "__main__.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert not any(_imports_cli(node) for node in ast.walk(tree)), f"{path.name} imports hmmdkit.cli"
    for command, (ptype, *_) in COMMANDS.items():
        assert callable(getattr(importlib.import_module(f"hmmdkit.{OWNERS[ptype]}"), f"report_{command}")), command


@pytest.mark.parametrize("owner", sorted({*OWNERS.values(), "criteria", "frameworks", "morph", "select"}))
def test_owner_module_loads_no_probio(owner):
    # an owner builds its file and report shapes from probio's engine only
    # when probio asks, so the solver alone stays free of the file format;
    # so do criteria (the frame's shapes), morph (the model that trajectory
    # shares), select (what knapsack and mckp share) and frameworks (an old
    # import path)
    loaded = loaded_in_child(f"import hmmdkit.{owner}")
    assert "hmmdkit.probio" not in loaded
    assert f"hmmdkit.{owner}" in loaded


def test_probio_loads_no_criteria():
    # the frame's shapes are built by criteria.shapes, which only the
    # weighted types' codecs call
    assert "hmmdkit.criteria" not in loaded_in_child("import hmmdkit.probio")


def test_probio_imports_no_solver_module():
    # probio is the codec engine: each problem type's shapes live in its
    # owner module, which probio reaches only through OWNERS. Only the
    # TYPE_CHECKING block (annotations only) may name a solver module
    tree = ast.parse((Path(hmmdkit.__file__).parent / "probio.py").read_text(encoding="utf-8"))
    allowed = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    ]
    assert len(allowed) == 1
    exempt = {id(node) for block in allowed for node in ast.walk(block)}
    owners = set(OWNERS.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in exempt:
            named = {alias.name for alias in node.names} if node.module is None else {node.module.split(".")[0]}
            assert not named & owners, f"probio.py:{node.lineno} imports {sorted(named & owners)}"


def test_every_problem_type_has_an_owner_with_codecs():
    assert {ptype for ptype, *_ in COMMANDS.values()} == set(OWNERS)
    for ptype, owner in OWNERS.items():
        payload, solution, text = importlib.import_module(f"hmmdkit.{owner}").codecs()
        assert callable(payload.parse) and callable(solution.write) and callable(text), ptype


#: perfbench layers whose function is no longer in the program:
#: priorities_from_quality is a test oracle in tests/test_morph.py, so the
#: morph.priorities span never records
DEAD_LAYERS = {("hmmdkit.morph", "priorities_from_quality")}


def test_every_perfbench_layer_resolves():
    # the tracer skips a layer whose function it cannot find, so a moved
    # function would silently read 0 in the benchmark's trace
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        (module, attr) for module, attr in spans.LAYERS
        if getattr(importlib.import_module(module), attr, None) is None
    }
    assert missing == DEAD_LAYERS
