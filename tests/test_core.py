import random
from fractions import Fraction
from operator import itemgetter

import pytest

from hmmdkit.core import (
    Criterion,
    CriteriaFrame,
    Direction,
    EstimateVector,
    ValidationError,
    dominates,
    equal_weight_frame,
    normalize_estimates,
    non_dominated,
    pareto_layers,
    vector_sum,
)
from hmmdkit.morph import QualityVector, n_dominates


def rows(*vals):
    return [EstimateVector(v) for v in vals]


def test_vector_sum_adds_componentwise_and_is_zero_when_empty():
    frame = equal_weight_frame(2)
    assert vector_sum(frame, []) == EstimateVector([0, 0])
    assert vector_sum(frame, rows([1, "1/2"], [2, "1/3"], [0, -1])) == EstimateVector([3, "-1/6"])


def test_frame_normalizes_weights():
    frame = CriteriaFrame(
        (Criterion("a", weight=2), Criterion("b", weight=3), Criterion("c", weight=5))
    )
    assert frame.weights == (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    assert sum(frame.weights) == 1


def test_frame_rejects_duplicates_and_zero_weights():
    with pytest.raises(ValidationError):
        CriteriaFrame((Criterion("a"), Criterion("a")))
    with pytest.raises(ValidationError):
        CriteriaFrame(())
    with pytest.raises(ValidationError):
        CriteriaFrame((Criterion("a", weight=0), Criterion("b", weight=0)))


def test_normalize_linear_endpoints():
    frame = equal_weight_frame(1)
    out = normalize_estimates(frame, rows([0], [5], [10]))
    assert [v[0] for v in out] == [Fraction(0), Fraction(1, 2), Fraction(1)]


def test_normalize_direction_flip():
    frame = CriteriaFrame((Criterion("cost", Direction.MINIMIZE),))
    out = normalize_estimates(frame, rows([0], [10]))
    assert [v[0] for v in out] == [Fraction(1), Fraction(0)]


def test_normalize_constant_criterion_is_neutral():
    frame = equal_weight_frame(1)
    out = normalize_estimates(frame, rows([7], [7], [7]))
    assert [v[0] for v in out] == [Fraction(1, 2)] * 3


def test_normalize_errors():
    frame = equal_weight_frame(2)
    with pytest.raises(ValidationError):
        normalize_estimates(frame, [])
    with pytest.raises(ValidationError):
        normalize_estimates(frame, rows([1, 2], [1]))


def test_normalize_bounds_and_idempotence():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 4)
        n = rng.randint(1, 8)
        frame = CriteriaFrame(
            tuple(
                Criterion(
                    f"c{i}",
                    rng.choice([Direction.MAXIMIZE, Direction.MINIMIZE]),
                    weight=rng.randint(1, 5),
                )
                for i in range(k)
            )
        )
        data = rows(*[[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)])
        out = normalize_estimates(frame, data)
        for row in out:
            assert all(0 <= v <= 1 for v in row)
        # canonical rows are larger-is-better: renormalizing under an
        # all-maximize frame must be the identity when each criterion
        # spans [0, 1] or is constant (constant maps to 1/2 = itself)
        maxframe = equal_weight_frame(k)
        again = normalize_estimates(maxframe, out)
        spans = [
            {min(c), max(c)} == {Fraction(0), Fraction(1)} or len(set(c)) == 1
            for c in zip(*(r.values for r in out))
        ]
        if all(spans):
            assert again == out


def test_dominates_examples():
    assert dominates(EstimateVector([3, 3]), EstimateVector([3, 1]))
    assert not dominates(EstimateVector([3, 1]), EstimateVector([1, 3]))
    assert not dominates(EstimateVector([1, 3]), EstimateVector([3, 1]))
    assert not dominates(EstimateVector([2, 2]), EstimateVector([2, 2]))
    with pytest.raises(ValidationError):
        dominates(EstimateVector([1]), EstimateVector([1, 2]))


def test_dominates_is_strict_partial_order():
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (
            EstimateVector([rng.randint(0, 3) for _ in range(3)]) for _ in range(3)
        )
        assert not dominates(a, a)
        if dominates(a, b):
            assert not dominates(b, a)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_non_dominated_and_layers():
    pts = [
        EstimateVector(v)
        for v in ([3, 3], [3, 1], [1, 1], [1, 3], [2, 2])
    ]
    front = non_dominated(pts, dominates)
    assert front == [pts[0]]
    layers = pareto_layers(pts, dominates)
    assert layers == [1, 2, 3, 2, 2]


# ------------------------------------------------- keyed front vs all-pairs oracle


def oracle_non_dominated(items, dom):
    """All-pairs filter: items not strictly dominated by any other item."""
    return [
        a
        for i, a in enumerate(items)
        if not any(dom(b, a) for j, b in enumerate(items) if j != i)
    ]


def oracle_pareto_layers(items, dom):
    """All-pairs peeling: 1-based layer index per item."""
    n = len(items)
    layer = [0] * n
    remaining = list(range(n))
    current = 1
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dom(items[j], items[i]) for j in remaining if j != i)
        ]
        if not front:
            raise ValidationError("dominance relation admits a cycle")
        for i in front:
            layer[i] = current
        remaining = [i for i in remaining if i not in set(front)]
        current += 1
    return layer


def _random_quality(rng):
    parts, levels = 3, 3
    cuts = sorted(rng.randint(0, parts) for _ in range(levels - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [parts])]
    return QualityVector(rng.randint(0, 3), tuple(counts))


#: key kind -> (seeded key generator, strict dominance on those keys)
KEY_KINDS = {
    "quality": (_random_quality, n_dominates),
    "estimate": (lambda rng: EstimateVector([rng.randint(0, 2) for _ in range(3)]), dominates),
    "tuple": (lambda rng: tuple(rng.randint(0, 3) for _ in range(2)), dominates),
}


@pytest.mark.parametrize("kind", sorted(KEY_KINDS))
def test_keyed_front_matches_all_pairs_oracle(kind):
    draw, dom = KEY_KINDS[kind]
    rng = random.Random(f"keyed-front:{kind}")
    for _ in range(120):
        pool = [draw(rng) for _ in range(rng.randint(1, 6))]
        # few distinct keys, many items: the keyed path must see repeats
        items = [(i, rng.choice(pool)) for i in range(rng.randint(1, 30))]
        key = itemgetter(1)
        keyed_dom = lambda x, y: dom(x[1], y[1])
        assert non_dominated(items, dom, key) == oracle_non_dominated(items, keyed_dom)
        assert pareto_layers(items, dom, key) == oracle_pareto_layers(items, keyed_dom)
        keys = [k for _, k in items]
        assert non_dominated(keys, dom) == oracle_non_dominated(keys, dom)
        assert pareto_layers(keys, dom) == oracle_pareto_layers(keys, dom)


def test_pareto_layers_rejects_a_cyclic_relation():
    def beats(a, b):  # rock-paper-scissors: strict but not transitive
        return (a - b) % 3 == 1

    with pytest.raises(ValidationError, match="cycle"):
        pareto_layers([0, 1, 2, 2], beats)
