"""The package loads submodules on first use, each CLI subcommand
imports only the solver modules it runs and none of the slow-to-import
standard modules in NEVER, and the runtime needs nothing beyond the
standard library."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hmmdkit
from hmmdkit.cli import COMMANDS
from test_probio import MINIMAL, problem_text

BASE = {"hmmdkit", "hmmdkit.cli", "hmmdkit.core", "hmmdkit.probio"}
FRAMEWORKS = BASE | {"hmmdkit.frameworks"}

#: subcommand -> every hmmdkit module a run of it may load
LOADS = {
    "rank": BASE | {"hmmdkit.rank"},
    "knapsack": BASE | {"hmmdkit.select"},
    "mckp": BASE | {"hmmdkit.select"},
    "cluster": BASE | {"hmmdkit.cluster"},
    "assign": BASE | {"hmmdkit.assign", "hmmdkit.select"},
    "tsp": BASE | {"hmmdkit.route"},
    "synth": BASE | {"hmmdkit.morph"},
    "trajectory": FRAMEWORKS | {"hmmdkit.morph"},
    "integrate": FRAMEWORKS,
    "pipeline": FRAMEWORKS | {"hmmdkit.assign", "hmmdkit.cluster", "hmmdkit.select"},
    "improve": FRAMEWORKS | {"hmmdkit.select"},
}

#: standard modules no subcommand may load: records are built by
#: core.frozen, not dataclasses (which imports inspect), and annotations
#: need no typing at run time
NEVER = {"dataclasses", "inspect", "typing"}

CHILD = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "hmmdkit" or m in {never})))
"""


def loaded_in_child(body: str, *argv: str) -> list[str]:
    """The hmmdkit modules, and those of NEVER, that a fresh interpreter
    holds after running ``body``."""
    src = str(Path(hmmdkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # -S: a .pth file in site-packages may import typing before hmmdkit runs
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.format(body=body, never=sorted(NEVER)), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_no_submodule():
    assert loaded_in_child("import hmmdkit") == ["hmmdkit"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_loads_only_its_modules(command, tmp_path):
    ptype = COMMANDS[command][0]
    path = tmp_path / f"{ptype}.json"
    path.write_text(problem_text(ptype, MINIMAL[ptype][0]))
    body = "from hmmdkit.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = set(loaded_in_child(body, command, "--input", str(path), "--output", str(tmp_path / "out")))
    assert loaded == LOADS[command]  # and so nothing of NEVER


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
