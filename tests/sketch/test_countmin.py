"""Tests for the Count-Min sketch baseline."""

import numpy as np
import pytest

from repro.sketch import CountMinSchema, DictVector


def _stream(rng, n=10000, population=1000):
    pop = rng.integers(0, 2**32, size=population, dtype=np.uint64)
    keys = pop[rng.integers(0, population, size=n)]
    values = rng.pareto(1.3, size=n) * 100 + 40
    return keys, values


class TestCountMin:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountMinSchema(depth=0, width=8)
        with pytest.raises(ValueError):
            CountMinSchema(depth=1, width=0)

    def test_overestimates_under_nonnegative_updates(self, rng):
        """The classical CM guarantee: est >= true for cash-register streams,
        for the row minimum and so for the median ESTIMATE too."""
        schema = CountMinSchema(depth=5, width=256, seed=0)
        keys, values = _stream(rng)
        sketch = schema.from_items(keys, values)
        exact = DictVector()
        exact.update_batch(keys, values)
        probe = exact.key_array()[:200]
        truth = exact.estimate_batch(probe)
        assert np.all(sketch.estimate_rows(probe).min(axis=0) >= truth - 1e-6)
        assert np.all(sketch.estimate_batch(probe) >= truth - 1e-6)

    def test_error_bounded_by_f1_over_k(self, rng):
        """The row minimum's est - true <= 2e/K * F1 holds with
        overwhelming probability."""
        schema = CountMinSchema(depth=5, width=1024, seed=1)
        keys, values = _stream(rng)
        sketch = schema.from_items(keys, values)
        exact = DictVector()
        exact.update_batch(keys, values)
        f1 = values.sum()
        probe = exact.key_array()[:200]
        errors = (
            sketch.estimate_rows(probe).min(axis=0) - exact.estimate_batch(probe)
        )
        assert errors.max() <= 2 * np.e / 1024 * f1

    def test_signed_estimation_for_turnstile(self, rng):
        schema = CountMinSchema(depth=5, width=2048, seed=2)
        keys, values = _stream(rng, n=5000)
        signs = rng.choice([-1.0, 1.0], size=len(values))
        sketch = schema.from_items(keys, values * signs)
        exact = DictVector()
        exact.update_batch(keys, values * signs)
        key, true_value = exact.top_n(1)[0]
        est = sketch.estimate_batch(np.array([key], dtype=np.uint64))[0]
        l2 = np.sqrt(exact.estimate_f2())
        assert abs(est - true_value) < l2 * 0.5

    def test_linearity(self, rng):
        schema = CountMinSchema(depth=3, width=128, seed=3)
        k1, v1 = _stream(rng, n=1000)
        k2, v2 = _stream(rng, n=1000)
        merged = schema.from_items(np.concatenate([k1, k2]), np.concatenate([v1, v2]))
        summed = schema.from_items(k1, v1) + schema.from_items(k2, v2)
        assert np.allclose(np.asarray(merged.table), np.asarray(summed.table))

    def test_total(self):
        schema = CountMinSchema(depth=2, width=16, seed=4)
        sketch = schema.from_items([1, 2], [3.0, 4.0])
        assert sketch.total() == pytest.approx(7.0)

    def test_schema_mismatch_rejected(self):
        a = CountMinSchema(depth=2, width=16, seed=1).empty()
        b = CountMinSchema(depth=2, width=16, seed=2).empty()
        with pytest.raises(ValueError):
            _ = a + b

    def test_f2_bound_is_upper_bound(self, rng):
        """CM's F2 'estimate' must upper-bound the true F2."""
        schema = CountMinSchema(depth=5, width=512, seed=5)
        keys, values = _stream(rng, n=5000)
        sketch = schema.from_items(keys, values)
        exact = DictVector()
        exact.update_batch(keys, values)
        assert sketch.estimate_f2() >= exact.estimate_f2() - 1e-6


class TestIndexSurface:
    """The KArySketch-style row surface: estimate_rows."""

    def test_estimate_rows_shape_and_median(self, rng):
        schema = CountMinSchema(depth=5, width=512, seed=3)
        keys, values = _stream(rng, n=4000)
        sketch = schema.from_items(keys, values)
        probe = np.unique(keys)[:200]
        rows = sketch.estimate_rows(probe)
        assert rows.shape == (5, len(probe))
        assert np.array_equal(
            np.median(rows, axis=0), sketch.estimate_batch(probe)
        )

    def test_estimate_rows_accepts_cached_indices(self, rng):
        schema = CountMinSchema(depth=3, width=256, seed=1)
        keys, values = _stream(rng, n=2000)
        sketch = schema.from_items(keys, values)
        probe = np.unique(keys)[:50]
        indices = schema.bucket_indices(probe)
        assert np.array_equal(
            sketch.estimate_rows(probe, indices=indices),
            sketch.estimate_rows(probe),
        )
