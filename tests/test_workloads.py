"""Every benchmark op runs on seeds past the recorded seed 0.

The benchmark (``perfbench/run.py``) builds each workload's inputs for a
seed with ``perfbench/workloads.py``, which imports hmmdkit names, and
counts an op correct when it exits 0 and its JSON report round-trips.
A seed-dependent failure or a moved name fails the benchmark outright;
this runs the same build and the same checks in process on seeds 1-3.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hmmdkit import cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _perfbench(name: str):
    """perfbench's ``name`` module, loaded once as ``perfbench_<name>``."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses looks its module up there
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["cli_mix", "synth_front", "solver_mix"])
def test_every_op_runs_and_round_trips(workload, seed, tmp_path):
    workloads, run = _perfbench("workloads"), _perfbench("run")
    built = workloads.build(workload, seed, tmp_path)
    assert built.ops
    checker = run.Checker({})
    for op in built.ops:
        code, report = run.run_in_process(cli, op)
        checker.ok(op, code, report)
    assert checker.failures == {}
