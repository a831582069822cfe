"""The old import path of the composite schemes that chain the base solvers.

Each scheme lives in the module that owns its problem type:
``trajectory`` (design_trajectory), ``integrate``
(evaluate_integration_tree), ``pipeline`` (run_three_set_pipeline) and
``improve`` (plan_improvement). This module re-exports only the names
that the benchmark harness (``perfbench``) still imports from here;
everything else imports each name from its home. No ``hmmdkit`` run
loads this module.
"""

from .improve import ImprovementPart, ImprovementSpec, plan_improvement
from .integrate import IntegrationNode
from .pipeline import PairActions, ThreeSetSpec, run_three_set_pipeline
from .trajectory import Stage, TrajectorySpec, design_trajectory
