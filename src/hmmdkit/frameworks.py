"""The old import path of the composite schemes that chain the base solvers.

Each scheme now lives in the module that owns its problem type:
``trajectory`` (design_trajectory), ``integrate``
(evaluate_integration_tree), ``pipeline`` (run_three_set_pipeline) and
``improve`` (plan_improvement). Their public names stay importable from
here, each loading only its own module on first access (PEP 562); no
``hmmdkit`` run loads this module.
"""

from __future__ import annotations

#: public name -> the module that defines it
_MOVED = {
    **dict.fromkeys(("Stage", "Trajectory", "TrajectorySpec", "design_trajectory"), "trajectory"),
    **dict.fromkeys(
        ("IntegrationNode", "IntegrationResult", "check_tables_total", "evaluate_integration_tree"), "integrate"
    ),
    **dict.fromkeys(("PairActions", "PipelineReport", "ThreeSetSpec", "run_three_set_pipeline"), "pipeline"),
    **dict.fromkeys(("ImprovementPart", "ImprovementPlan", "ImprovementSpec", "plan_improvement"), "improve"),
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MOVED[name]}", __package__), name)
