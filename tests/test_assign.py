import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import oracle_adjusted, table5_assignment_instance
from hmmdkit.assign import (
    AssignmentInstance,
    assign_exact,
    assign_greedy,
    assign_pareto,
)
from hmmdkit.core import GuardExceeded, ValidationError, dominates
from hmmdkit.criteria import CriteriaFrame, Criterion, Direction, as_ints, equal_weight_frame, scalarize
from hmmdkit.exact import EstimateVector


def vec(*v):
    return EstimateVector(v)


def instance(values, capacity=None, k=1):
    n_a, n_p = len(values), len(values[0])
    return AssignmentInstance(
        agents=tuple(f"a{i}" for i in range(n_a)),
        positions=tuple(f"p{j}" for j in range(n_p)),
        cells=tuple(
            tuple(v if isinstance(v, EstimateVector) else vec(v) for v in row)
            for row in values
        ),
        frame=equal_weight_frame(k),
        capacity=capacity,
    )


def test_one_by_one():
    inst = instance([[5]])
    for solver in (assign_greedy, assign_exact):
        assert solver(inst).pairs == {("a0", "p0")}


def test_greedy_fixes_dominant_cell_first():
    inst = instance([[9, 1], [2, 3]])
    sol = assign_greedy(inst)
    assert sol.pairs == {("a0", "p0"), ("a1", "p1")}


def test_exact_prefers_diagonal():
    inst = instance([[5, 1], [1, 5]])
    sol = assign_exact(inst)
    assert sol.pairs == {("a0", "p0"), ("a1", "p1")}


def test_exact_three_by_two_equals_hand_enumeration():
    values = [[4, 1], [3, 9], [8, 2]]
    inst = instance(values)
    betas = dict(
        zip(
            [(f"a{i}", f"p{j}") for i in range(3) for j in range(2)],
            scalarize(inst.frame, [vec(v) for row in values for v in row]),
        )
    )
    best = None
    for pair_of_agents in itertools.permutations(range(3), 2):
        pairs = {(f"a{pair_of_agents[0]}", "p0"), (f"a{pair_of_agents[1]}", "p1")}
        obj = sum(betas[p] for p in pairs)
        if best is None or obj > best[0]:
            best = (obj, pairs)
    sol = assign_exact(inst)
    assert sol.pairs == best[1]
    assert sol.objective == best[0]


def test_table5_greedy_matches_reference_pairs():
    inst = table5_assignment_instance()
    sol = assign_greedy(inst)
    assert sol.pairs == {
        ("A1", "V6"),
        ("A2", "V10"),
        ("A3", "V12"),
        ("A5", "V1"),
    }
    assigned_agents = {a for a, _ in sol.pairs}
    assert "A4" not in assigned_agents


def random_instance(rng, n_a, n_p, k=2, capacity=None):
    return instance(
        [
            [vec(*[rng.randint(0, 9) for _ in range(k)]) for _ in range(n_p)]
            for _ in range(n_a)
        ],
        capacity=capacity,
        k=k,
    )


def test_exact_at_least_greedy_on_random_instances():
    rng = random.Random(89)
    for _ in range(100):
        inst = random_instance(rng, 5, 5)
        g = assign_greedy(inst)
        e = assign_exact(inst)
        assert e.objective >= g.objective


def test_capacity_and_single_position_constraints_hold():
    rng = random.Random(97)
    for _ in range(40):
        n_a, n_p = rng.randint(1, 5), rng.randint(1, 4)
        cap = {f"p{j}": rng.randint(1, 2) for j in range(n_p)}
        inst = random_instance(rng, n_a, n_p, capacity=cap)
        for sol in (assign_greedy(inst), assign_exact(inst)):
            agents = [a for a, _ in sol.pairs]
            assert len(set(agents)) == len(agents)
            for p in inst.positions:
                assert sum(1 for _, q in sol.pairs if q == p) <= inst.capacity[p]
            # maximality: everyone assigned when capacity allows
            assert len(sol.pairs) == min(n_a, inst.total_capacity())


def test_pareto_single_criterion_equals_argmax_set():
    rng = random.Random(101)
    for _ in range(25):
        inst = random_instance(rng, 3, 3, k=1)
        front = assign_pareto(inst)
        best = max(s.objective_vector[0] for s in front)
        # single criterion: the front is exactly the scalar-optimal set
        all_sols = front + []
        assert all(s.objective_vector[0] == best for s in front)
        exact = assign_exact(inst)
        assert exact.objective_vector[0] == best


def test_pareto_incomparable_objective_vectors_both_survive():
    # the two maximal assignments have objective vectors (2,0) and (0,2)
    inst = instance(
        [[vec(1, 0), vec(0, 1)], [vec(0, 1), vec(1, 0)]],
        k=2,
    )
    front = assign_pareto(inst)
    vectors = sorted(tuple(s.objective_vector.values) for s in front)
    assert vectors == [(Fraction(0), Fraction(2)), (Fraction(2), Fraction(0))]


def _brute_pareto(inst):
    from hmmdkit.assign import _maximal_assignments

    sols = []
    for pairs in _maximal_assignments(inst):
        vecs = [
            inst.cells[inst.agents.index(a)][inst.positions.index(p)]
            for a, p in pairs
        ]
        total = [sum(col, Fraction(0)) for col in zip(*(v.values for v in vecs))]
        sols.append((frozenset(pairs), tuple(total)))
    front = []
    for pairs, total in sols:
        adjusted = total
        dominated = any(
            all(u >= v for u, v in zip(o, adjusted))
            and any(u > v for u, v in zip(o, adjusted))
            for _, o in sols
        )
        if not dominated:
            front.append(pairs)
    return sorted(front, key=sorted)


def test_pareto_builds_a_solution_only_for_the_front(monkeypatch):
    from hmmdkit import assign

    real, built = assign.AssignmentSolution, []

    def counting(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(assign, "AssignmentSolution", counting)
    inst = table5_assignment_instance()
    front = assign_pareto(inst)
    assert sum(1 for _ in assign._maximal_assignments(inst)) == 120
    assert len(built) == len(front) == 5


def test_pareto_equals_brute_force_filter():
    rng = random.Random(103)
    for _ in range(20):
        inst = random_instance(rng, 4, 4, k=3)
        front = assign_pareto(inst)
        assert sorted((s.pairs for s in front), key=sorted) == _brute_pareto(inst)


def adjusted_assign_pareto(inst):
    """assign_pareto as it was before criteria.oriented: every maximal
    assignment whose objective vector, minimized criteria flipped by
    _adjusted, no other one strictly dominates."""
    from hmmdkit.assign import _cell_betas, _maximal_assignments, _solution

    betas = _cell_betas(inst, None)
    sols = [_solution(inst, set(pairs), betas) for pairs in _maximal_assignments(inst)]
    keys = [oracle_adjusted(inst.frame, s.objective_vector) for s in sols]
    front = [s for s, key in zip(sols, keys) if not any(dominates(o, key) for o in keys)]
    return sorted(front, key=lambda s: sorted(s.pairs))


def test_pareto_equals_the_adjusted_filter():
    # max and min criteria, constant columns, repeated agent rows, ints and Fractions
    rng = random.Random(131)
    number = lambda: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 4))])
    sizes = Counter()
    for _ in range(300):
        n_a, n_p, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
        frame = CriteriaFrame(tuple(Criterion(f"c{i}", rng.choice(list(Direction))) for i in range(k)))
        constant = rng.randrange(k) if rng.random() < 0.3 else None
        cells = [[vec(*(7 if c == constant else number() for c in range(k))) for _ in range(n_p)]
                 for _ in range(n_a)]
        if n_a > 1 and rng.random() < 0.3:
            cells[-1] = cells[0]
        positions = tuple(f"p{j}" for j in range(n_p))
        capacity = {p: rng.randint(1, 2) for p in positions} if rng.random() < 0.5 else None
        inst = AssignmentInstance(tuple(f"a{i}" for i in range(n_a)), positions, cells, frame, capacity)
        front = assign_pareto(inst)
        assert front == adjusted_assign_pareto(inst)
        sizes[len(front) > 1] += 1
    assert min(sizes.values()) > 50, sizes


def test_pareto_contains_exact_for_random_weight_vectors():
    rng = random.Random(107)
    inst = random_instance(rng, 4, 4, k=3)
    front_pairs = {s.pairs for s in assign_pareto(inst)}
    for _ in range(10):
        weights = [rng.randint(1, 9) for _ in range(3)]
        exact = assign_exact(inst, weights=weights)
        assert exact.pairs in front_pairs


def test_enumeration_guard(monkeypatch):
    rng = random.Random(109)
    inst = random_instance(rng, 10, 10)
    with pytest.raises(GuardExceeded, match=r"^10 assigned agents exceed guard 9$"):
        assign_pareto(inst)
    # the guard counts assigned agents: 4 agents, but only 3 seats
    small = random_instance(rng, 4, 3)
    monkeypatch.setenv("HMMD_KIT_GUARD", "2")
    with pytest.raises(GuardExceeded, match=r"^3 assigned agents exceed guard 2$"):
        assign_pareto(small)
    monkeypatch.setenv("HMMD_KIT_GUARD", "3")
    assert assign_pareto(small)


def test_exact_assignment_has_no_guard(monkeypatch):
    # a min-cost flow, not an enumeration: past 9 agents, and under any
    # HMMD_KIT_GUARD; two positions of 5 seats keep the oracle at 252 cases
    rng = random.Random(109)
    inst = random_instance(rng, 10, 2, capacity={"p0": 5, "p1": 5})
    monkeypatch.setenv("HMMD_KIT_GUARD", "1")
    sol = assign_exact(inst)
    assert sol == enumerating_assign_exact(inst)
    assert len(sol.pairs) == 10


def enumerating_assign_exact(inst, weights=None):
    """assign_exact as it was before the min-cost flow: every maximal
    assignment, best objective first, then the smallest sorted pair list."""
    from hmmdkit.assign import _cell_betas, _maximal_assignments, _solution

    betas = _cell_betas(inst, weights)
    best = None
    for pairs in _maximal_assignments(inst):
        obj = sum((betas[pr] for pr in pairs), Fraction(0))
        key = (-obj, sorted(pairs))
        if best is None or key < best[0]:
            best = (key, set(pairs))
    return _solution(inst, best[1], betas)


def sweep_instance(rng):
    """1-6 agents and 1-4 positions in shuffled id order, often with
    capacities, on a scale of 2, 3 or 10 levels so that ties are common."""
    n_a, n_p, k = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 3)
    top = rng.choice([1, 2, 9])
    agents = [f"a{i}" for i in range(n_a)]
    positions = [f"p{j}" for j in range(n_p)]
    rng.shuffle(agents)
    rng.shuffle(positions)
    frame = CriteriaFrame(tuple(
        Criterion(f"c{i}", rng.choice(list(Direction)), rng.randint(1, 3)) for i in range(k)
    ))
    capacity = {p: rng.randint(1, 3) for p in positions} if rng.random() < 0.5 else None
    cells = [[vec(*(rng.randint(0, top) for _ in range(k))) for _ in positions] for _ in agents]
    weights = None
    if rng.random() < 0.3:
        weights = [rng.randint(0, 4) for _ in range(k)]
        weights[rng.randrange(k)] += 1
    return AssignmentInstance(tuple(agents), tuple(positions), cells, frame, capacity), weights


def test_exact_equals_the_enumerating_oracle():
    rng = random.Random(113)
    for _ in range(1500):
        inst, weights = sweep_instance(rng)
        assert assign_exact(inst, weights) == enumerating_assign_exact(inst, weights)


def scanning_assign_greedy(inst, weights=None):
    """assign_greedy as it was before the single sorted pass: each step
    rescans every free cell for the best (-beta, agent, position) key."""
    from hmmdkit.assign import _cell_betas, _solution

    betas = _cell_betas(inst, weights)
    free_agents = list(inst.agents)
    room = dict(inst.capacity)
    pairs = set()
    while free_agents and any(room[p] > 0 for p in inst.positions):
        best = None
        for a in free_agents:
            for p in inst.positions:
                if room[p] <= 0:
                    continue
                key = (-betas[(a, p)], inst.agents.index(a), inst.positions.index(p))
                if best is None or key < best[0]:
                    best = (key, a, p)
        _, a, p = best
        pairs.add((a, p))
        free_agents.remove(a)
        room[p] -= 1
    return _solution(inst, pairs, betas)


def test_greedy_equals_the_scanning_oracle():
    # sweep_instance draws tied betas, capacities above 1, surplus agents or
    # positions and explicit weights
    rng = random.Random(131)
    for _ in range(1500):
        inst, weights = sweep_instance(rng)
        assert assign_greedy(inst, weights) == scanning_assign_greedy(inst, weights)
    for _ in range(20):
        n_a, n_p = rng.randint(10, 30), rng.randint(2, 10)
        inst = random_instance(rng, n_a, n_p, k=3, capacity={f"p{j}": rng.randint(1, 4) for j in range(n_p)})
        assert assign_greedy(inst) == scanning_assign_greedy(inst)


def test_exact_objective_equals_scipy_past_the_old_guard():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(127)
    for _ in range(12):
        n_a, n_p = rng.randint(10, 40), rng.randint(2, 8)
        capacity = {f"p{j}": rng.randint(1, 4) for j in range(n_p)}
        inst = random_instance(rng, n_a, n_p, k=3, capacity=capacity)
        sol = assign_exact(inst)
        betas = scalarize(inst.frame, [v for row in inst.cells for v in row])
        scaled = as_ints(betas)  # small ints, exact in scipy's float64
        # one column per seat of a position
        seats = [j for j, p in enumerate(inst.positions) for _ in range(inst.capacity[p])]
        gain = [[scaled[i * n_p + j] for j in seats] for i in range(n_a)]
        rows, cols = scipy_optimize.linear_sum_assignment(gain, maximize=True)
        best = sum(gain[i][c] for i, c in zip(rows, cols))
        pairs = {(inst.agents.index(a), inst.positions.index(p)) for a, p in sol.pairs}
        assert sum(scaled[i * n_p + j] for i, j in pairs) == best
        agents = [a for a, _ in sol.pairs]
        assert len(set(agents)) == len(agents) == min(n_a, len(seats))
        for p in inst.positions:
            assert sum(q == p for _, q in sol.pairs) <= inst.capacity[p]


def test_instance_validation():
    with pytest.raises(ValidationError):
        instance([[1, 2], [3]])
    with pytest.raises(ValidationError):
        AssignmentInstance(
            agents=("a", "a"),
            positions=("p",),
            cells=((vec(1),), (vec(1),)),
            frame=equal_weight_frame(1),
        )
    with pytest.raises(ValidationError):
        instance([[1]], capacity={"nope": 1})
    with pytest.raises(ValidationError):
        instance([[1]], capacity={"p0": 0})
