"""Command-line front end: dispatch problem files to solvers, emit reports.

Exit codes: 0 success, 1 solve failure or oracle mismatch, 2 usage error
(unknown flags, method, or subcommand/problem-type mismatch), 3 parse or
validation error. Every failure prints one machine-parseable line to
stderr: "hmmdkit: error: <category>: <detail>".
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import probio
from .core import (
    GuardExceeded,
    InfeasibleError,
    ValidationError,
    as_frac,
    guard_limit,
)
from .probio import ResultFile, ResultFormat, parse_problem, write_result

# Each _solve_* imports its own solver module, so a run loads only the
# solvers of its subcommand.

EXIT_OK = 0
EXIT_SOLVE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

#: subcommand -> (expected problem type, legal methods, default method, takes weights)
COMMANDS = {
    "rank": ("rank", ("utility", "pareto", "outranking", "ideal"), "utility", False),
    "knapsack": ("knapsack", ("greedy", "exact"), "greedy", True),
    "mckp": ("mckp", ("greedy", "exact"), "greedy", True),
    "cluster": ("cluster", ("single", "complete", "average"), None, False),
    "assign": ("assign", ("greedy", "exact", "pareto"), "greedy", True),
    "tsp": ("tsp", ("nearest", "two_opt", "brute"), "two_opt", False),
    "synth": ("morph", ("synthesis",), "synthesis", False),
    "trajectory": ("trajectory", ("enumerate",), "enumerate", False),
    "integrate": ("integrate", ("tables",), "tables", False),
    "pipeline": ("pipeline", ("chain",), "chain", True),
    "improve": ("improve", ("auto",), "auto", True),
}


class CliError(Exception):
    def __init__(self, category: str, message: str, code: int) -> None:
        super().__init__(message)
        self.category = category
        self.code = code


def _usage(message: str) -> CliError:
    return CliError("usage", message, EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    # argparse prints usage plus an error line; failures must stay single-line
    def error(self, message):
        raise _usage(message)


def _vector(v) -> list:
    return list(v.values)


def _quality(q) -> dict:
    return {"w": q.w, "counts": list(q.counts)}


def _selection_payload(sol) -> dict:
    return {
        "chosen": sorted(sol.chosen),
        "total_cost": sol.total_cost,
        "objective": sol.objective,
        "objective_vector": _vector(sol.objective_vector),
    }


def _assignment_entry(sol) -> dict:
    return {
        "pairs": [list(p) for p in sorted(sol.pairs)],
        "objective": sol.objective,
        "objective_vector": _vector(sol.objective_vector),
    }


def _solve_rank(problem, method, weights, oracle):
    from .rank import rank_ideal_point, rank_outranking, rank_pareto_layers, rank_utility

    inst = problem.instance
    if method == "utility":
        res = rank_utility(inst)
    elif method == "pareto":
        res = rank_pareto_layers(inst)
    elif method == "outranking":
        res = rank_outranking(inst, problem.p, problem.q)
    else:
        res = rank_ideal_point(inst)
    solution = {
        "priorities": dict(sorted(res.priorities.items())),
        "scores": dict(sorted(res.scores.items())),
    }
    diagnostics = {}
    if oracle:
        # dominance consistency: a better-or-equal vector never ranks worse
        from .core import dominates, normalize_estimates

        norm = normalize_estimates(inst.frame, [e for _, e in inst.alternatives])
        ids = inst.ids
        for i in range(len(ids)):
            for j in range(len(ids)):
                if i != j and dominates(norm[i], norm[j]):
                    if res.priorities[ids[i]] > res.priorities[ids[j]]:
                        raise CliError(
                            "oracle",
                            f"{ids[i]} dominates {ids[j]} but ranks below it",
                            EXIT_SOLVE,
                        )
        diagnostics["oracle"] = "ok (dominance consistency)"
    return solution, diagnostics


def _solve_knapsack(problem, method, weights, oracle):
    from .select import knapsack_exact, knapsack_greedy

    inst = problem.instance
    sol = knapsack_greedy(inst, weights) if method == "greedy" else knapsack_exact(inst, weights)
    diagnostics = {}
    if oracle:
        try:
            exact = sol if method == "exact" else knapsack_exact(inst, weights)
        except (ValidationError, GuardExceeded) as exc:
            diagnostics["oracle"] = f"skipped ({exc})"
        else:
            greedy = sol if method == "greedy" else knapsack_greedy(inst, weights)
            if greedy.objective < Fraction(3, 4) * exact.objective:
                raise CliError(
                    "oracle",
                    f"greedy objective {greedy.objective} below 0.75 x exact {exact.objective}",
                    EXIT_SOLVE,
                )
            diagnostics["oracle"] = "ok (greedy within 0.75 of exact)"
    if sol.total_cost > inst.budget:
        raise CliError("solve", "budget violated", EXIT_SOLVE)
    return _selection_payload(sol), diagnostics


def _solve_mckp(problem, method, weights, oracle):
    from .select import mckp_exact_dp, mckp_greedy

    inst = problem.instance
    sol = mckp_greedy(inst, weights) if method == "greedy" else mckp_exact_dp(inst, weights)
    diagnostics = {}
    if oracle:
        try:
            exact = sol if method == "exact" else mckp_exact_dp(inst, weights)
        except (ValidationError, GuardExceeded) as exc:
            diagnostics["oracle"] = f"skipped ({exc})"
        else:
            greedy = sol if method == "greedy" else mckp_greedy(inst, weights)
            if exact.objective < greedy.objective:
                raise CliError(
                    "oracle",
                    f"exact objective {exact.objective} below greedy {greedy.objective}",
                    EXIT_SOLVE,
                )
            diagnostics["oracle"] = "ok (exact >= greedy)"
    if sol.total_cost > inst.budget:
        raise CliError("solve", "budget violated", EXIT_SOLVE)
    return _selection_payload(sol), diagnostics


def _solve_cluster(problem, method, weights, oracle):
    from .cluster import Linkage, build_dendrogram, cut_dendrogram

    linkage = Linkage(method) if method else problem.linkage
    dend = build_dendrogram(problem.matrix, linkage)
    partition = None
    if problem.k is not None:
        partition = [list(block) for block in cut_dendrogram(dend, problem.k)]
    solution = {
        "merges": [
            {"left": list(m.left), "right": list(m.right), "height": m.height}
            for m in dend.merges
        ],
        "partition": partition,
    }
    diagnostics = {}
    if oracle:
        for k in range(1, len(problem.matrix.ids) + 1):
            blocks = cut_dendrogram(dend, k)
            flat = sorted(x for b in blocks for x in b)
            if flat != sorted(problem.matrix.ids) or len(blocks) != k:
                raise CliError("oracle", f"cut at k={k} is not a partition", EXIT_SOLVE)
        diagnostics["oracle"] = "ok (all cuts partition the ids)"
    return solution, diagnostics


def _solve_assign(problem, method, weights, oracle):
    from .assign import assign_exact, assign_greedy, assign_pareto

    inst = problem.instance
    if method == "pareto":
        if weights is not None:
            raise _usage("--weights is not applicable to the pareto method")
        sols = assign_pareto(inst)
        solution = {"solutions": [_assignment_entry(s) for s in sols]}
    else:
        sol = assign_greedy(inst, weights) if method == "greedy" else assign_exact(inst, weights)
        solution = {"solutions": [_assignment_entry(sol)]}
    diagnostics = {}
    if oracle:
        try:
            exact = assign_exact(inst, weights)
        except GuardExceeded as exc:
            diagnostics["oracle"] = f"skipped ({exc})"
        else:
            if method == "pareto":
                front_pairs = {frozenset(map(tuple, e["pairs"])) for e in solution["solutions"]}
                if frozenset(exact.pairs) not in front_pairs:
                    raise CliError("oracle", "exact solution missing from front", EXIT_SOLVE)
                diagnostics["oracle"] = "ok (front contains exact solution)"
            else:
                greedy = assign_greedy(inst, weights)
                if exact.objective < greedy.objective:
                    raise CliError(
                        "oracle",
                        f"exact objective {exact.objective} below greedy {greedy.objective}",
                        EXIT_SOLVE,
                    )
                diagnostics["oracle"] = "ok (exact >= greedy)"
    return solution, diagnostics


def _solve_tsp(problem, method, weights, oracle):
    from .route import tsp_brute_force, tsp_nearest_neighbor, tsp_two_opt

    inst = problem.instance
    start = problem.start or inst.ids[0]
    if method == "nearest":
        tour = tsp_nearest_neighbor(inst, start)
    elif method == "two_opt":
        tour = tsp_two_opt(inst, tsp_nearest_neighbor(inst, start))
    else:
        tour = tsp_brute_force(inst)
    diagnostics = {}
    if oracle:
        try:
            best = tour if method == "brute" else tsp_brute_force(inst)
        except GuardExceeded as exc:
            diagnostics["oracle"] = f"skipped ({exc})"
        else:
            if tour.length < best.length - 1e-9:
                raise CliError("oracle", "tour shorter than the optimum", EXIT_SOLVE)
            if method == "two_opt" and tour.length > 1.10 * best.length + 1e-9:
                raise CliError(
                    "oracle",
                    f"tour length {tour.length} above 1.10 x optimum {best.length}",
                    EXIT_SOLVE,
                )
            diagnostics["oracle"] = "ok (within declared ratio of optimum)"
    return {"order": list(tour.order), "length": tour.length}, diagnostics


def _solve_synth(problem, method, weights, oracle):
    from .morph import synthesize_tree_trace

    trace = synthesize_tree_trace(problem.system)
    nodes = []
    for nid in sorted(trace.nodes):
        rec = trace.nodes[nid]
        nodes.append(
            {
                "id": nid,
                "composites": [
                    {
                        "id": cid,
                        "selection": [list(p) for p in d.selection],
                        "leaves": [list(p) for p in leaves],
                        "quality": _quality(d.quality),
                        "priority": prio,
                    }
                    for cid, d, prio, leaves in zip(
                        rec.composite_ids, rec.decisions, rec.priorities, rec.leaf_selections
                    )
                ],
            }
        )
    solution = {"root": trace.root_id, "nodes": nodes}
    diagnostics = {}
    if oracle:
        for rec in trace.nodes.values():
            parts = len(problem.system.node(rec.node_id).children)
            for d in rec.decisions:
                if d.quality.m != parts:
                    raise CliError(
                        "oracle", f"node {rec.node_id}: level counts do not sum to parts", EXIT_SOLVE
                    )
        diagnostics["oracle"] = "ok (level counts consistent)"
    return solution, diagnostics


def _solve_trajectory(problem, method, weights, oracle):
    from .frameworks import design_trajectory

    front = design_trajectory(problem.spec, problem.all_pairs)
    solution = {
        "trajectories": [
            {"path": list(t.path), "quality": _quality(t.quality)} for t in front
        ]
    }
    diagnostics = {}
    if oracle:
        stage_ids = [
            {d for d, _ in s.decisions} for s in problem.spec.stages
        ]
        for t in front:
            if len(t.path) != len(stage_ids) or any(
                d not in ids for d, ids in zip(t.path, stage_ids)
            ):
                raise CliError("oracle", f"invalid trajectory {t.path}", EXIT_SOLVE)
        diagnostics["oracle"] = "ok (one decision per stage)"
    return solution, diagnostics


def _solve_integrate(problem, method, weights, oracle):
    from .frameworks import evaluate_integration_tree

    result = evaluate_integration_tree(problem.tree)
    solution = {
        "root_estimate": result.root_estimate,
        "trace": dict(sorted(result.trace.items())),
    }
    diagnostics = {}
    if oracle:
        if result.trace[problem.tree.id] != result.root_estimate:
            raise CliError("oracle", "trace root disagrees with estimate", EXIT_SOLVE)
        diagnostics["oracle"] = "ok (trace consistent)"
    return solution, diagnostics


def _solve_pipeline(problem, method, weights, oracle):
    from .frameworks import run_three_set_pipeline

    report = run_three_set_pipeline(problem.spec, problem.linkage, weights)
    solution = {
        "clusters1": [list(b) for b in report.clusters1],
        "clusters2": [list(b) for b in report.clusters2],
        "assignment": [list(p) for p in report.assignment],
        "actions": [
            {"element1": e1, "element2": e2, "action": act, "cost": cost}
            for e1, e2, act, cost in report.selected_actions
        ],
        "total_cost": report.total_cost,
        "objective": report.objective,
        "mckp_method": report.mckp_method,
    }
    diagnostics = {}
    if oracle:
        if report.total_cost > problem.spec.budget:
            raise CliError("oracle", "pipeline exceeded its budget", EXIT_SOLVE)
        for e1, e2, _, _ in report.selected_actions:
            blocks1 = [i for i, b in enumerate(report.clusters1) if e1 in b]
            blocks2 = [j for j, b in enumerate(report.clusters2) if e2 in b]
            if (blocks1[0], blocks2[0]) not in set(report.assignment):
                raise CliError(
                    "oracle", f"action for unmatched pair ({e1}, {e2})", EXIT_SOLVE
                )
        diagnostics["oracle"] = "ok (stage-consistent selection)"
    return solution, diagnostics


def _solve_improve(problem, method, weights, oracle):
    from .frameworks import plan_improvement

    plan = plan_improvement(problem.spec, weights)
    solution = _selection_payload(plan.solution)
    solution["by_part"] = dict(sorted(plan.by_part.items()))
    diagnostics = {"solver": plan.method}
    if oracle:
        chosen_parts = [p for p, a in plan.by_part.items() if a is not None]
        if len(chosen_parts) != len(set(chosen_parts)):
            raise CliError("oracle", "two actions selected for one part", EXIT_SOLVE)
        if plan.solution.total_cost > problem.spec.budget:
            raise CliError("oracle", "improvement plan exceeded its budget", EXIT_SOLVE)
        diagnostics["oracle"] = "ok (one action per part within budget)"
    return solution, diagnostics


_SOLVERS = {
    "rank": _solve_rank,
    "knapsack": _solve_knapsack,
    "mckp": _solve_mckp,
    "cluster": _solve_cluster,
    "assign": _solve_assign,
    "tsp": _solve_tsp,
    "synth": _solve_synth,
    "trajectory": _solve_trajectory,
    "integrate": _solve_integrate,
    "pipeline": _solve_pipeline,
    "improve": _solve_improve,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hmmdkit",
        description="Multicriteria ranking, selection and morphological synthesis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, methods, default, _w) in COMMANDS.items():
        p = sub.add_parser(name, help=f"solve a {name} problem file")
        p.add_argument("--input", required=True, help="problem file path")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--method",
            default=None,
            help=f"one of: {', '.join(methods)}"
            + (f" (default {default})" if default else " (default: from the file)"),
        )
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--oracle", action="store_true", help="cross-check against the exact counterpart")
        p.add_argument("--weights", default=None, help="comma-separated scalarization weights")
    return parser


def _parse_weights(raw: str | None) -> list[Fraction] | None:
    if raw is None:
        return None
    try:
        weights = [as_frac(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValidationError as exc:
        raise _usage(f"bad --weights: {exc}")
    if not weights:
        raise _usage("--weights must list at least one number")
    return weights


def run_command(args: argparse.Namespace) -> int:
    expected_type, methods, default, takes_weights = COMMANDS[args.command]
    method = args.method or default
    if method is not None and method not in methods:
        raise _usage(
            f"unknown method {method!r} for {args.command} (choose from: {', '.join(methods)})"
        )
    weights = _parse_weights(args.weights)
    if weights is not None and not takes_weights:
        raise _usage(f"--weights is not applicable to {args.command}")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError("parse", f"cannot read {args.input}: {exc.strerror}", EXIT_PARSE)
    try:
        pf = parse_problem(text)
    except probio.ParseError as exc:
        raise CliError("parse", str(exc), EXIT_PARSE)
    if pf.problem_type != expected_type:
        raise _usage(
            f"subcommand {args.command!r} expects a {expected_type!r} file, "
            f"got {pf.problem_type!r}"
        )
    if args.command == "cluster" and method is None:
        method = pf.payload.linkage.value
    try:
        guard_limit(1)  # reject a bad HMMD_KIT_GUARD on every run, guarded or not
        solution, diagnostics = _SOLVERS[args.command](pf.payload, method, weights, args.oracle)
    except CliError:
        raise
    except GuardExceeded as exc:
        raise CliError("solve", str(exc), EXIT_SOLVE)
    except InfeasibleError as exc:
        raise CliError("solve", str(exc), EXIT_SOLVE)
    except ValidationError as exc:
        raise CliError("parse", str(exc), EXIT_PARSE)
    result = ResultFile(
        spec_version=probio.SPEC_VERSION,
        problem_type=pf.problem_type,
        method=method,
        solution=solution,
        diagnostics=diagnostics,
    )
    fmt = ResultFormat.STRUCTURED if args.format == "json" else ResultFormat.TEXT
    rendered = write_result(result, fmt)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise CliError(
                "output", f"cannot write {args.output}: {exc.strerror}", EXIT_SOLVE
            )
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help exits 0 through argparse itself
            return 0 if exc.code in (0, None) else EXIT_USAGE
        return run_command(args)
    except CliError as exc:
        print(f"hmmdkit: error: {exc.category}: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
