"""Equivalence tests for the shared-work grid-search engine.

The batched objective, the stack objective and the ``evaluate_many``
hook must all reproduce the per-object search exactly (same energies,
same winner, same evaluation count), and summaries that do not stack
must take the per-object path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.forecast import make_forecaster
from repro.gridsearch import (
    SEARCH_SPACES,
    coerce_tables,
    estimated_total_energy,
    estimated_total_energy_batched,
    grid_search,
    search_model,
    stack_total_energy,
)
from repro.gridsearch.search_spaces import build_search_spaces
from repro.sketch import (
    DictVector,
    InvertibleKArySchema,
    KArySchema,
    KArySketch,
)

SKIP = 5


@pytest.fixture
def observed(rng):
    schema = KArySchema(depth=3, width=256, seed=17)
    sketches = []
    for _ in range(28):
        s = KArySketch(schema)
        keys = rng.integers(0, 2**32, size=250, dtype=np.uint64)
        s.update_batch(keys, rng.normal(60.0, 18.0, size=250))
        sketches.append(s)
    return sketches


@pytest.fixture
def stack(observed):
    return np.stack([s.table for s in observed])


def per_object_search(model, observed, skip_intervals, passes=2):
    """``search_model``'s result by the per-object path alone."""
    space = build_search_spaces()[model]

    def objective(forecaster):
        return estimated_total_energy(observed, forecaster, skip_intervals)

    return grid_search(
        space, objective, passes=passes if space.continuous else 1
    )


CANDIDATES = {
    "ma": [{"window": w} for w in range(1, 9)],
    "sma": [{"window": w} for w in range(1, 9)],
    "ewma": [{"alpha": float(a)} for a in np.linspace(0.1, 1.0, 10)],
    "nshw": [
        {"alpha": float(a), "beta": float(b)}
        for a in np.linspace(0.1, 1.0, 4)
        for b in np.linspace(0.1, 1.0, 4)
    ],
}


def _assert_batched_matches_per_object(model, observed):
    candidates = CANDIDATES[model]
    batched = estimated_total_energy_batched(
        observed, model, candidates, skip_intervals=SKIP
    )
    for ci, params in enumerate(candidates):
        ref = estimated_total_energy(
            observed, make_forecaster(model, **params), SKIP
        )
        assert batched[ci] == ref, (model, params)


@pytest.mark.parametrize("model", sorted(CANDIDATES))
def test_batched_energies_bit_identical(model, observed):
    _assert_batched_matches_per_object(model, observed)


@pytest.mark.parametrize("model", sorted(CANDIDATES))
def test_batched_energies_short_series(model, observed):
    """Windows as long as the series or longer score nothing, as per object."""
    _assert_batched_matches_per_object(model, observed[:6])


def test_batched_rejects_unknown_model(stack):
    with pytest.raises(ValueError, match="batch-scored"):
        estimated_total_energy_batched(stack, "arima0", [{}])


def test_batched_rejects_unstackable_input():
    vectors = [DictVector() for _ in range(4)]
    with pytest.raises(TypeError):
        estimated_total_energy_batched(vectors, "ewma", [{"alpha": 0.5}])


def test_batched_empty_candidates(stack):
    out = estimated_total_energy_batched(stack, "ewma", [])
    assert out.shape == (0,)


def test_stack_total_energy_matches_reference(observed, stack):
    tables = stack
    width = observed[0].schema.width
    for model, params in [
        ("ewma", {"alpha": 0.4}),
        ("arima0", {"ar": (0.5,), "ma": (0.3,)}),
        ("arima1", {"ar": (0.4,), "ma": ()}),
    ]:
        ref = estimated_total_energy(observed, make_forecaster(model, **params), SKIP)
        got = stack_total_energy(tables, width, make_forecaster(model, **params), SKIP)
        assert got == ref, (model, params)


def test_coerce_tables_forms(observed, stack):
    for form in (observed, stack):
        coerced = coerce_tables(form)
        assert coerced is not None
        got, width = coerced
        assert width == observed[0].schema.width
        assert np.array_equal(got, stack)
    assert coerce_tables([DictVector()]) is None
    assert coerce_tables([]) is None
    assert coerce_tables(np.zeros((4, 5))) is None


def test_grid_search_evaluate_many_matches_sequential(observed, stack):
    space = SEARCH_SPACES["ewma"]
    tables = stack
    width = observed[0].schema.width

    def objective(forecaster):
        return stack_total_energy(tables, width, forecaster, SKIP)

    def evaluate_many(combos):
        return estimated_total_energy_batched(
            tables, "ewma", combos, skip_intervals=SKIP
        )

    seq = grid_search(space, objective, passes=2)
    bat = grid_search(space, objective, passes=2, evaluate_many=evaluate_many)
    assert bat.best_params == seq.best_params
    assert bat.best_energy == seq.best_energy
    assert bat.evaluations == seq.evaluations


def test_grid_search_evaluate_many_length_mismatch(stack):
    space = SEARCH_SPACES["ewma"]
    with pytest.raises(ValueError, match="evaluate_many"):
        grid_search(
            space, lambda f: 0.0, passes=1, evaluate_many=lambda combos: [1.0]
        )


@pytest.mark.parametrize("model", sorted(CANDIDATES))
def test_search_model_auto_matches_reference(model, observed):
    auto = search_model(model, observed, skip_intervals=SKIP)
    ref = per_object_search(model, observed, SKIP)
    assert auto.best_params == ref.best_params
    assert auto.best_energy == ref.best_energy
    assert auto.evaluations == ref.evaluations


def test_search_model_reads_a_generator_like_a_list(rng):
    """Each candidate re-reads the series: a one-shot iterable must score
    like the list it yields, not run dry after the first candidate."""
    schema = KArySchema(depth=1, width=64, seed=3)
    observed = [
        schema.from_items(
            rng.integers(0, 2**32, size=100, dtype=np.uint64),
            rng.normal(4000.0, 2000.0, size=100),
        )
        for _ in range(8)
    ]
    listed = search_model("ewma", observed, skip_intervals=2)
    generated = search_model("ewma", (s for s in observed), skip_intervals=2)
    assert generated.best_params == listed.best_params
    assert generated.best_energy == listed.best_energy
    assert listed.best_energy > 0.0


def test_search_model_exact_summaries_fall_back(rng):
    """Non-stackable summaries take the per-object path."""
    observed = []
    for _ in range(10):
        v = DictVector()
        keys = rng.integers(0, 1000, size=50, dtype=np.uint64)
        v.update_batch(keys, rng.normal(10.0, 3.0, size=50))
        observed.append(v)
    result = search_model("ewma", observed, skip_intervals=2)
    ref = per_object_search("ewma", observed, 2)
    assert result.best_params == ref.best_params
    assert result.best_energy == ref.best_energy


@pytest.mark.parametrize("model", ["ma", "ewma", "arima0"])
def test_search_model_invertible_sketches_take_the_per_object_path(model, rng):
    """An invertible sketch's table holds three planes; it must not stack."""
    schema = InvertibleKArySchema(depth=3, width=64, seed=5)
    observed = []
    for _ in range(6):
        keys = rng.integers(0, 2**32, size=100, dtype=np.uint64)
        observed.append(
            schema.from_items(keys, rng.normal(40.0, 10.0, size=100))
        )
    assert coerce_tables(observed) is None
    got = search_model(model, observed, skip_intervals=3, passes=1)
    ref = per_object_search(model, observed, 3, passes=1)
    assert got.best_params == ref.best_params
    assert got.best_energy == ref.best_energy
    assert got.evaluations == ref.evaluations


def test_search_model_refuses_mixed_hash_functions(rng):
    """Sketches over different seeds cannot be combined, stacked or not."""
    schemas = [KArySchema(depth=1, width=256, seed=seed) for seed in (1, 2)]
    observed = []
    for t in range(12):
        keys = rng.integers(0, 2**32, size=200, dtype=np.uint64)
        observed.append(
            schemas[t % 2].from_items(keys, rng.normal(40.0, 10.0, size=200))
        )
    assert coerce_tables(observed) is None
    with pytest.raises(ValueError, match="different schemas"):
        search_model("ewma", observed, skip_intervals=2)


# Winners and energies of one seeded H=1, K=1024 series, as the search gave
# them before its duplicate scoring paths were deleted; pinned so that no
# change to the scoring paths can move them.  Energies are compared to a
# relative 1e-12, not bit for bit: the F2 sum of squares is a
# SIMD-accumulated einsum, whose last bits may differ across CPUs.
PINNED_OUTCOMES = {
    "ma": ({"window": 4}, 101735922870.20158),
    "sma": ({"window": 4}, 103169916119.24445),
    "ewma": ({"alpha": 0.13333333333333333}, 79576521202.23701),
    "nshw": (
        {"alpha": 0.9333333333333333, "beta": 0.4666666666666667},
        236247970860.14584,
    ),
    "arima0": (
        {
            "ar1": -0.4444444444444444,
            "ar2": -0.2222222222222222,
            "ma1": -0.8888888888888891,
            "ma2": -0.6666666666666666,
        },
        62876437677.37496,
    ),
    "arima1": (
        {
            "ar1": -1.1111111111111112,
            "ar2": -0.44444444444444453,
            "ma1": -1.777777777777778,
            "ma2": -0.8888888888888891,
        },
        70396777789.65825,
    ),
}


@pytest.fixture(scope="module")
def pinned_series():
    rng = np.random.default_rng(2003)
    schema = KArySchema(depth=1, width=1024, seed=11)
    pool = rng.integers(0, 2**32, size=600, dtype=np.uint64)
    base = rng.pareto(1.5, size=600) * 100.0 + 10.0
    series = []
    for t in range(12):
        pick = rng.choice(600, size=300, replace=False)
        level = 1.0 + 0.3 * np.sin(t / 2.0)
        series.append(
            schema.from_items(
                pool[pick], base[pick] * level + rng.normal(0.0, 5.0, 300)
            )
        )
    return series


@pytest.mark.parametrize("model", sorted(PINNED_OUTCOMES))
def test_search_model_outcomes_pinned(model, pinned_series):
    result = search_model(model, pinned_series, skip_intervals=4, max_window=4)
    params, energy = PINNED_OUTCOMES[model]
    assert result.best_params == params
    assert result.best_energy == pytest.approx(energy, rel=1e-12)
