"""Equivalence tests for the shared-work grid-search engine.

The batched objective, the stack objective and the ``evaluate_many``
hook must all reproduce the reference per-object search exactly (same
energies, same winner, same evaluation count).
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
from repro.sketch import DictVector, KArySchema, KArySketch, SketchStack

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
    return SketchStack.from_sketches(observed)


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


@pytest.mark.parametrize("model", sorted(CANDIDATES))
def test_batched_energies_bit_identical(model, observed, stack):
    candidates = CANDIDATES[model]
    batched = estimated_total_energy_batched(
        stack, model, candidates, skip_intervals=SKIP
    )
    for ci, params in enumerate(candidates):
        ref = estimated_total_energy(
            observed, make_forecaster(model, **params), SKIP
        )
        assert batched[ci] == ref, (model, params)


@pytest.mark.parametrize("block_size", [1, 3, 7, 8, 100])
def test_block_size_does_not_change_results(stack, block_size):
    candidates = CANDIDATES["nshw"]
    default = estimated_total_energy_batched(
        stack, "nshw", candidates, skip_intervals=SKIP
    )
    other = estimated_total_energy_batched(
        stack, "nshw", candidates, skip_intervals=SKIP, block_size=block_size
    )
    assert np.array_equal(default, other)


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
    tables = np.asarray(stack.tables)
    width = stack.schema.width
    for model, params in [
        ("ewma", {"alpha": 0.4}),
        ("arima0", {"ar": (0.5,), "ma": (0.3,)}),
        ("arima1", {"ar": (0.4,), "ma": ()}),
    ]:
        ref = estimated_total_energy(observed, make_forecaster(model, **params), SKIP)
        got = stack_total_energy(tables, width, make_forecaster(model, **params), SKIP)
        assert got == ref, (model, params)


def test_coerce_tables_forms(observed, stack):
    tables = np.asarray(stack.tables)
    for form in (stack, observed, tables):
        coerced = coerce_tables(form)
        assert coerced is not None
        got, width = coerced
        assert width == stack.schema.width
        assert np.array_equal(got, tables)
    assert coerce_tables([DictVector()]) is None
    assert coerce_tables(np.zeros((4, 5))) is None


def test_grid_search_evaluate_many_matches_sequential(stack):
    space = SEARCH_SPACES["ewma"]
    tables = np.asarray(stack.tables)
    width = stack.schema.width

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
def test_search_model_auto_matches_reference(model, observed, stack):
    auto = search_model(model, stack, skip_intervals=SKIP, engine="auto")
    ref = search_model(model, observed, skip_intervals=SKIP, engine="reference")
    assert auto.best_params == ref.best_params
    assert auto.best_energy == ref.best_energy
    assert auto.evaluations == ref.evaluations


def test_search_model_rejects_bad_engine(stack):
    with pytest.raises(ValueError, match="engine"):
        search_model("ewma", stack, engine="bogus")


def test_search_model_exact_summaries_fall_back(rng):
    """Non-stackable summaries silently use the reference path under auto."""
    observed = []
    for _ in range(10):
        v = DictVector()
        keys = rng.integers(0, 1000, size=50, dtype=np.uint64)
        v.update_batch(keys, rng.normal(10.0, 3.0, size=50))
        observed.append(v)
    result = search_model("ewma", observed, skip_intervals=2, engine="auto")
    ref = search_model("ewma", observed, skip_intervals=2, engine="reference")
    assert result.best_params == ref.best_params
    assert result.best_energy == ref.best_energy
