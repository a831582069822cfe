import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import oracle_normalize_estimates
from hmmdkit.core import (
    EstimateVector,
    FrozenInstanceError,
    ValidationError,
    as_frac,
    check_unique,
    dominates,
    frozen,
    non_dominated,
)
from hmmdkit.criteria import (
    Criterion,
    CriteriaFrame,
    Direction,
    check_lengths,
    equal_weight_frame,
    nonnegative,
    scalarize,
    vector_sum,
)
from hmmdkit.morph import QualityVector, n_dominates
from hmmdkit.rank import normalize_estimates, pareto_layers


def rows(*vals):
    return [EstimateVector(v) for v in vals]


def _records(decorate):
    """One set of record classes per decorator, alike in all else (qualnames too)."""

    @decorate
    class Point:
        x: int
        y: int
        label: str = "p"
        weight: Fraction = Fraction(1)

    @decorate
    class Normalized:
        values: tuple

        def __post_init__(self):
            object.__setattr__(self, "values", tuple(self.values))

    @decorate
    class OwnInit:
        values: tuple

        def __init__(self, raw):
            object.__setattr__(self, "values", tuple(sorted(raw)))

    @decorate
    class Single:
        x: int

    return {cls.__name__: cls for cls in (Point, Normalized, OwnInit, Single)}


#: (class, args, kwargs): positional, defaulted and keyword construction
RECORD_CALLS = [
    ("Point", (1, 2), {}),
    ("Point", (1, 2, "q", Fraction(1, 3)), {}),
    ("Point", (1, 2, "q"), {}),
    ("Point", (1,), {"y": 2, "weight": Fraction(1, 2)}),
    ("Point", (), {"label": "q", "y": 2, "x": 1}),
    ("Normalized", ([3, 1],), {}),
    ("Normalized", (), {"values": [2]}),
    ("OwnInit", ([3, 1, 2],), {}),
    ("Single", (7,), {}),
]


def test_frozen_records_behave_like_frozen_dataclasses():
    ours, theirs = _records(frozen), _records(dataclasses.dataclass(frozen=True))
    for name, args, kwargs in RECORD_CALLS:
        a, b = ours[name](*args, **kwargs), theirs[name](*args, **kwargs)
        assert repr(a) == repr(b)
        assert hash(a) == hash(b)
        assert type(a).__match_args__ == type(b).__match_args__
        assert a == ours[name](*args, **kwargs) and not a != ours[name](*args, **kwargs)
        assert a.__eq__(b) is NotImplemented and a != b
        messages = []
        for target, error in ((a, FrozenInstanceError), (b, dataclasses.FrozenInstanceError)):
            field = type(target).__match_args__[0]
            with pytest.raises(error) as assigned:
                setattr(target, field, 0)
            with pytest.raises(error) as deleted:
                delattr(target, field)
            messages.append((str(assigned.value), str(deleted.value)))
        assert messages[0] == messages[1]
    assert issubclass(FrozenInstanceError, AttributeError)
    assert ours["Point"](1, 2) != ours["Point"](1, 3)
    assert ours["Normalized"]([1]).values == (1,)
    for args, kwargs in [((), {}), ((1, 2, "q", 1, 5), {}), ((1, 2), {"z": 3}), ((1, 2), {"x": 1}), ((1,), {"label": "q"})]:
        for cls in (ours["Point"], theirs["Point"]):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


@pytest.mark.parametrize(
    "text",
    ["1e4301", "1e-4301", "1e4300", "9" * 4300 + ".5", "1E+5000", "1e3000000"],
    ids=["1e4301", "1e-4301", "1e4300", "4300 nines.5", "1E+5000", "1e3000000"],
)
def test_as_frac_rejects_numbers_past_the_digit_limit(text):
    # no report could write a numerator or denominator of more than 4,300
    # digits, and a huge exponent is refused before Fraction builds 10**exponent
    with pytest.raises(ValidationError, match="number out of range: .* has more than 4300 digits"):
        as_frac(text)


def test_as_frac_keeps_numbers_at_the_digit_limit():
    assert as_frac("1e4299") == 10**4299
    assert as_frac("-1e-4299") == Fraction(-1, 10**4299)
    assert as_frac("9" * 4299 + ".5") == Fraction(int("9" * 4299 + "5"), 10)
    with pytest.raises(ValidationError, match="not a number"):
        as_frac("1e")


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


def test_record_rules_name_the_first_fault_and_format_only_on_failure():
    # "{0} {1}" with no arguments raises IndexError if it is ever formatted
    check_unique(["a", "b"], "{0} {1}")
    check_lengths(equal_weight_frame(2), [(EstimateVector([1, 2]), "{0} {1}")])
    assert nonnegative("1/2", "{0} {1}") == Fraction(1, 2)
    with pytest.raises(ValidationError, match=r"^node 'n': duplicate id 'b'$"):
        check_unique(["a", "b", "b", "a"], "node {!r}: duplicate id", "n")
    with pytest.raises(ValidationError, match=r"^duplicate pair \('a', 'b'\)$"):
        check_unique([("a", "b"), ("a", "b")], "duplicate pair")
    entries = [(EstimateVector(v), "row {}", i) for i, v in enumerate([[1, 2], [1], [1, 2, 3]])]
    with pytest.raises(ValidationError, match=r"^row 1: 1 values for 2 criteria$"):
        check_lengths(equal_weight_frame(2), entries)
    with pytest.raises(ValidationError, match=r"^item 'x': cost must be nonnegative$"):
        nonnegative(-0.5, "item {!r}: cost", "x")


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
        tuple(EstimateVector(v))
        for v in ([3, 3], [3, 1], [1, 1], [1, 3], [2, 2])
    ]
    front = non_dominated(pts)
    assert front == [pts[0]]
    layers = pareto_layers(pts)
    assert layers == [1, 2, 3, 2, 2]


def test_non_dominated_returns_the_distinct_front_largest_first():
    keys = [(1, 3), (2, 2), (1, 3), (0, 0), (3, 1), (2, 2), (1, 1)]
    assert non_dominated(keys) == [(3, 1), (2, 2), (1, 3)]
    assert non_dominated([(5,), (5,)]) == [(5,)]
    assert non_dominated([]) == []


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


#: key kind -> (seeded key generator, strict dominance on those keys, the
#: orderable vector non_dominated compares in place of a key)
KEY_KINDS = {
    "quality": (_random_quality, n_dominates, lambda q: (q.w, *q.cumulative())),
    "estimate": (lambda rng: EstimateVector([rng.randint(0, 2) for _ in range(3)]), dominates, tuple),
    "tuple": (lambda rng: tuple(rng.randint(0, 3) for _ in range(2)), dominates, tuple),
}


@pytest.mark.parametrize("kind", sorted(KEY_KINDS))
def test_keyed_front_matches_all_pairs_oracle(kind):
    draw, dom, vector = KEY_KINDS[kind]
    rng = random.Random(f"keyed-front:{kind}")
    for _ in range(120):
        pool = [draw(rng) for _ in range(rng.randint(1, 6))]
        # few distinct keys, many items: the front must see repeats
        items = [(i, rng.choice(pool)) for i in range(rng.randint(1, 30))]
        keyed_dom = lambda x, y: dom(x[1], y[1])
        vectors = [vector(k) for _, k in items]
        front = {vector(k) for _, k in oracle_non_dominated(items, keyed_dom)}
        assert non_dominated(vectors) == sorted(front, reverse=True)
        assert pareto_layers(vectors) == oracle_pareto_layers(items, keyed_dom)
        keys = [k for _, k in items]
        assert {vector(k) for k in oracle_non_dominated(keys, dom)} == front
        assert pareto_layers(vectors) == oracle_pareto_layers(keys, dom)


def oracle_scalarize(frame, values, weights=None):
    """The weighted sum with its own weight checks, as it was written out
    before explicit weights went through CriteriaFrame."""
    if weights is None:
        lam = frame.weights
    else:
        lam = tuple(as_frac(w) for w in weights)
        if len(lam) != len(frame):
            raise ValidationError(f"{len(lam)} weights for {len(frame)} criteria")
        if any(w < 0 for w in lam):
            raise ValidationError("weights must be nonnegative")
        total = sum(lam, Fraction(0))
        if total == 0:
            raise ValidationError("weights must not all be zero")
        lam = tuple(w / total for w in lam)
    norm = oracle_normalize_estimates(frame, values)
    return [sum((w * v for w, v in zip(lam, row)), Fraction(0)) for row in norm]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError:
        return ValidationError


def test_scalarize_matches_the_written_out_oracle():
    rng = random.Random(173)
    entry = lambda: rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0])
    outcomes = {"scores": 0, "error": 0}
    for _ in range(600):
        k = rng.randint(1, 4)
        frame_weights = [rng.randint(0, 3) for _ in range(k)]
        frame_weights[rng.randrange(k)] += 1  # a frame needs one nonzero weight
        frame = CriteriaFrame(tuple(
            Criterion(f"c{i}", rng.choice(list(Direction)), w) for i, w in enumerate(frame_weights)
        ))
        width = k if rng.random() < 0.95 else k + rng.choice([-1, 1])
        values = rows(*([entry() for _ in range(width)] for _ in range(rng.randint(0, 6))))
        weights = rng.choice([
            None,
            [entry() for _ in range(k)],
            [rng.randint(0, 3) for _ in range(k)],
            [0] * k,
            [entry() for _ in range(rng.choice([k - 1, k + 1]))],
            [rng.choice([1, Fraction(1, 3), 0.25, -1, "1/2", "x", True]) for _ in range(k)],
        ])
        got = _outcome(scalarize, frame, values, weights)
        assert got == _outcome(oracle_scalarize, frame, values, weights)
        outcomes["error" if got is ValidationError else "scores"] += 1
    assert min(outcomes.values()) > 100
