"""Symmetric TSP heuristics: nearest-neighbor construction, 2-opt
improvement, and a brute-force oracle for small instances."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import (
    GuardExceeded,
    Number,
    OracleError,
    ValidationError,
    check_dissimilarities,
    check_guard,
    frozen,
)

BRUTE_FORCE_GUARD = 10


@frozen
class TspInstance:
    ids: tuple[str, ...]
    dist: tuple[tuple[Number, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "dist", tuple(tuple(row) for row in self.dist))
        check_dissimilarities(self.ids, self.dist)


@frozen
class Tour:
    order: tuple[str, ...]
    length: Number


def _require_cities(inst: TspInstance) -> None:
    if len(inst.ids) < 3:
        raise ValidationError("a tour needs at least 3 cities")


def tour_length(inst: TspInstance, order: list[int]) -> Number:
    n = len(order)
    return sum(inst.dist[order[i]][order[(i + 1) % n]] for i in range(n))


def _as_tour(inst: TspInstance, order: list[int]) -> Tour:
    return Tour(
        order=tuple(inst.ids[i] for i in order),
        length=tour_length(inst, order),
    )


def _indices(inst: TspInstance, tour: Tour) -> list[int]:
    if sorted(tour.order) != sorted(inst.ids):
        raise ValidationError("tour is not a permutation of the instance cities")
    return [inst.ids.index(c) for c in tour.order]


def tsp_nearest_neighbor(inst: TspInstance, start: str) -> Tour:
    """Repeatedly visit the closest unvisited city; ties break on id."""
    _require_cities(inst)
    if start not in inst.ids:
        raise ValidationError(f"unknown start city {start!r}")
    current = inst.ids.index(start)
    order = [current]
    unvisited = set(range(len(inst.ids))) - {current}
    while unvisited:
        current = min(unvisited, key=lambda j: (inst.dist[current][j], inst.ids[j]))
        order.append(current)
        unvisited.remove(current)
    return _as_tour(inst, order)


def tsp_two_opt(inst: TspInstance, initial: Tour) -> Tour:
    """First-improvement 2-opt edge exchanges until no move improves.

    Scans segment endpoints i < j by position and restarts after every
    applied move, so the outcome is deterministic. A move improves when
    its length change is below 0, or below -1e-12 when the change is a
    float (float noise). An int change is below one exactly when it is
    below the other, so the test is picked once for the matrix, and per
    pair only when it mixes floats and Fractions.
    """
    _require_cities(inst)
    order = _indices(inst, initial)
    n = len(order)
    dist = inst.dist
    kinds = {x.__class__ for row in dist for x in row}
    bound = -1e-12 if float in kinds else 0
    mixed = float in kinds and Fraction in kinds
    improved = True
    while improved:
        improved = False
        ring = order + order[:1]
        for i in range(n - 1):
            a, b = order[i - 1], order[i]
            d_a, d_b = dist[a], dist[b]
            d_ab = d_a[b]
            # j - i + 1 >= n - 1 mirrors the whole cycle: not a real move
            for j in range(i + 1, min(n, i + n - 2)):
                c, e = ring[j], ring[j + 1]
                delta = d_a[c] + d_b[e] - d_ab - dist[c][e]
                if delta < bound or (mixed and delta < 0 and delta.__class__ is Fraction):
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
                    break
            if improved:
                break
    return _as_tour(inst, order)


def tsp_brute_force(inst: TspInstance) -> Tour:
    """Exact optimum by enumerating (n-1)!/2 distinct cycles."""
    _require_cities(inst)
    n = len(inst.ids)
    check_guard(n, BRUTE_FORCE_GUARD, "cities")
    rest = list(range(1, n))
    dist = inst.dist
    best_len: Number | None = None
    best_order: list[int] | None = None
    for perm in itertools.permutations(rest):
        if perm[0] > perm[-1]:
            continue  # each cycle and its reversal count once
        total = dist[0][perm[0]]
        prev = perm[0]
        for k in range(1, n - 1):
            total += dist[prev][perm[k]]
            if best_len is not None and total >= best_len:
                break
            prev = perm[k]
        else:
            total += dist[prev][0]
            if best_len is None or total < best_len:
                best_len = total
                best_order = [0, *perm]
    return _as_tour(inst, best_order)


# ------------------------------------------------ report and file format


@frozen
class TspProblem:
    instance: TspInstance
    start: str | None


def report_tsp(problem, method, weights, oracle):
    """``hmmdkit tsp``: the oracle holds the tour to the brute-force optimum,
    and 2-opt to 1.10 of it."""
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
                raise OracleError("tour shorter than the optimum")
            if method == "two_opt" and tour.length > 1.10 * best.length + 1e-9:
                raise OracleError(f"tour length {tour.length} above 1.10 x optimum {best.length}")
            diagnostics["oracle"] = "ok (within declared ratio of optimum)"
    return {"order": tour.order, "length": tour.length}, diagnostics


def codecs() -> tuple:
    """The tsp file's payload codec, its report's solution codec and the
    body lines of its text report (``probio.OWNERS``)."""
    from .probio import ID_LIST, IDS, MATRIX, NUM, STR, Record, doc, fail, render_number, wrap

    def build(ids: tuple, matrix: tuple, start: str | None) -> TspProblem:
        with wrap(".matrix"):
            inst = TspInstance(ids, matrix)
        if start is not None and start not in ids:
            fail(f"unknown city {start!r}", ".start")
        return TspProblem(inst, start)

    payload = Record(
        ("ids", IDS, "instance.ids"),
        ("matrix", MATRIX, "instance.dist"),
        ("start", STR, "start", None),
        build=build,
    )

    def text(sol: dict) -> list[str]:
        return ["tour: " + " -> ".join(sol["order"]), f"length: {render_number(sol['length'])}"]

    return payload, doc(("order", ID_LIST), ("length", NUM)), text
