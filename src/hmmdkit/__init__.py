"""Multicriteria ranking, combinatorial selection, and hierarchical
morphological synthesis toolkit.

Importing the package loads no submodule: each exported name is imported
from its submodule on first access (PEP 562), so a run pays only for the
solvers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the names the package exports from it
_EXPORTS = {
    "assign": (
        "AssignmentInstance",
        "AssignmentSolution",
        "assign_exact",
        "assign_greedy",
        "assign_pareto",
    ),
    "cluster": (
        "Dendrogram",
        "DissimilarityMatrix",
        "Linkage",
        "build_dendrogram",
        "cut_dendrogram",
    ),
    "core": (
        "Best",
        "EstimateVector",
        "GuardExceeded",
        "InfeasibleError",
        "OracleError",
        "OrdinalScale",
        "ValidationError",
        "dominates",
    ),
    "criteria": ("Criterion", "CriteriaFrame", "Direction", "equal_weight_frame", "scalarize"),
    "improve": ("ImprovementPart", "ImprovementSpec", "plan_improvement"),
    "integrate": ("IntegrationNode", "evaluate_integration_tree"),
    "knapsack": ("KnapsackInstance", "knapsack_exact", "knapsack_greedy"),
    "mckp": ("Group", "GroupRule", "MckpInstance", "mckp_exact_dp", "mckp_greedy"),
    "morph": (
        "CompositeDecision",
        "DesignAlternative",
        "MorphNode",
        "MorphSystem",
        "QualityVector",
        "compose_node",
        "n_dominates",
    ),
    "pipeline": ("PairActions", "ThreeSetSpec", "run_three_set_pipeline"),
    "rank": (
        "RankingInstance",
        "RankingResult",
        "normalize_estimates",
        "rank_ideal_point",
        "rank_outranking",
        "rank_pareto_layers",
        "rank_utility",
    ),
    "route": (
        "Tour",
        "TspInstance",
        "tsp_brute_force",
        "tsp_nearest_neighbor",
        "tsp_two_opt",
    ),
    "select": ("Item", "SelectionSolution"),
    "synth": ("synthesize_tree", "synthesize_tree_trace"),
    "trajectory": ("Stage", "Trajectory", "TrajectorySpec", "design_trajectory"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
