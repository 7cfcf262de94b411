"""Tests for the k-ary sketch: the paper's four operations."""

import numpy as np
import pytest

from repro.sketch import DictVector, KArySchema, KArySketch, combine


def _stream(rng, n=20000, population=2000):
    pop = rng.integers(0, 2**32, size=population, dtype=np.uint64)
    ranks = np.arange(1, population + 1, dtype=np.float64)
    probs = ranks**-1.0
    probs /= probs.sum()
    keys = pop[rng.choice(population, size=n, p=probs)]
    values = rng.pareto(1.3, size=n) * 100 + 40
    return keys, values


class TestSchema:
    def test_validation(self):
        with pytest.raises(ValueError, match="depth"):
            KArySchema(depth=0, width=64)
        with pytest.raises(ValueError, match="width"):
            KArySchema(depth=1, width=1)

    def test_hashes_are_independent(self):
        schema = KArySchema(depth=5, width=1024, seed=0)
        keys = np.arange(5000, dtype=np.uint64)
        rows = [h.hash_array(keys) for h in schema.hashes]
        for i in range(5):
            for j in range(i + 1, 5):
                assert float(np.mean(rows[i] == rows[j])) < 0.01

    def test_same_seed_same_hashes(self):
        keys = np.arange(100, dtype=np.uint64)
        a = KArySchema(depth=3, width=256, seed=9)
        b = KArySchema(depth=3, width=256, seed=9)
        assert np.array_equal(a.bucket_indices(keys), b.bucket_indices(keys))

    def test_depth_prefix_property(self):
        """A deeper schema's first rows equal a shallower schema's rows."""
        keys = np.arange(100, dtype=np.uint64)
        shallow = KArySchema(depth=3, width=256, seed=4)
        deep = KArySchema(depth=7, width=256, seed=4)
        assert np.array_equal(
            deep.bucket_indices(keys)[:3], shallow.bucket_indices(keys)
        )

    def test_table_bytes(self):
        schema = KArySchema(depth=5, width=1024)
        assert schema.table_bytes == 5 * 1024 * 8

    def test_bucket_indices_shape(self):
        schema = KArySchema(depth=4, width=128, seed=0)
        assert schema.bucket_indices(np.arange(10, dtype=np.uint64)).shape == (4, 10)

    def test_polynomial_family_supported(self):
        schema = KArySchema(depth=2, width=64, seed=0, family="polynomial")
        sketch = schema.from_items([1, 2, 3], [1.0, 2.0, 3.0])
        assert sketch.total() == pytest.approx(6.0)


class TestUpdate:
    def test_total_matches_inserted_mass(self, rng):
        schema = KArySchema(depth=5, width=512, seed=1)
        keys, values = _stream(rng)
        sketch = schema.from_items(keys, values)
        assert sketch.total() == pytest.approx(values.sum(), rel=1e-12)

    def test_all_rows_hold_same_total(self, rng):
        schema = KArySchema(depth=5, width=512, seed=1)
        keys, values = _stream(rng, n=5000)
        sketch = schema.from_items(keys, values)
        row_sums = sketch.table.sum(axis=1)
        assert np.allclose(row_sums, row_sums[0])

    def test_duplicate_keys_in_batch_accumulate(self):
        schema = KArySchema(depth=3, width=64, seed=2)
        sketch = schema.from_items([5, 5, 5], [1.0, 2.0, 3.0])
        assert sketch.estimate(5) == pytest.approx(6.0, rel=0.2)

    def test_scalar_update(self):
        schema = KArySchema(depth=3, width=64, seed=2)
        sketch = schema.empty()
        sketch.update(123, 10.0)
        sketch.update(123, -4.0)
        assert sketch.total() == pytest.approx(6.0)

    def test_negative_updates_supported(self):
        """Turnstile model: deletions must work."""
        schema = KArySchema(depth=3, width=64, seed=2)
        sketch = schema.empty()
        sketch.update_batch([1, 2, 1], [10.0, 5.0, -10.0])
        assert sketch.total() == pytest.approx(5.0)

    def test_empty_batch(self):
        schema = KArySchema(depth=3, width=64, seed=2)
        sketch = schema.empty()
        sketch.update_batch(np.array([], dtype=np.uint64), np.array([]))
        assert sketch.total() == 0.0

    def test_bad_table_shape_rejected(self):
        schema = KArySchema(depth=3, width=64)
        with pytest.raises(ValueError, match="shape"):
            KArySketch(schema, table=np.zeros((2, 64)))


class TestEstimate:
    def test_point_estimates_track_truth(self, rng):
        schema = KArySchema(depth=5, width=4096, seed=3)
        keys, values = _stream(rng)
        sketch = schema.from_items(keys, values)
        exact = DictVector()
        exact.update_batch(keys, values)
        top = exact.top_n(20)
        l2 = np.sqrt(exact.estimate_f2())
        for key, true_value in top:
            error = abs(sketch.estimate(key) - true_value)
            # Theorem 1: per-row std <= L2/sqrt(K-1); the median of 5 rows
            # should essentially never be 6 per-row sigmas out.
            assert error < 6 * l2 / np.sqrt(4096 - 1)

    def test_estimate_unbiased_over_seeds(self, rng):
        keys, values = _stream(rng, n=5000, population=500)
        exact = DictVector()
        exact.update_batch(keys, values)
        key, true_value = exact.top_n(1)[0]
        estimates = []
        for seed in range(60):
            schema = KArySchema(depth=1, width=256, seed=seed)
            estimates.append(schema.from_items(keys, values).estimate(key))
        mean = float(np.mean(estimates))
        sem = float(np.std(estimates) / np.sqrt(len(estimates)))
        assert abs(mean - true_value) < 4 * sem + 1e-9

    def test_estimate_batch_matches_scalar(self, rng):
        schema = KArySchema(depth=5, width=512, seed=4)
        keys, values = _stream(rng, n=2000)
        sketch = schema.from_items(keys, values)
        probe = np.unique(keys)[:50]
        batch = sketch.estimate_batch(probe)
        for key, expected in zip(probe.tolist(), batch.tolist()):
            assert sketch.estimate(key) == pytest.approx(expected)

    def test_single_key_sketch_estimates_exactly(self):
        """With one key there are no collisions to correct for."""
        schema = KArySchema(depth=5, width=512, seed=5)
        sketch = schema.from_items([77], [123.0])
        assert sketch.estimate(77) == pytest.approx(123.0)

    def test_absent_key_estimates_near_zero(self, rng):
        schema = KArySchema(depth=5, width=4096, seed=6)
        keys, values = _stream(rng)
        sketch = schema.from_items(keys, values)
        exact = DictVector()
        exact.update_batch(keys, values)
        l2 = np.sqrt(exact.estimate_f2())
        absent = 2**33 % 2**32 + 123456789  # unlikely to be in stream
        est = abs(sketch.estimate(absent))
        assert est < 6 * l2 / np.sqrt(4096 - 1)


class TestEstimateF2:
    def test_tracks_true_f2(self, rng):
        schema = KArySchema(depth=5, width=4096, seed=7)
        keys, values = _stream(rng)
        sketch = schema.from_items(keys, values)
        exact = DictVector()
        exact.update_batch(keys, values)
        true_f2 = exact.estimate_f2()
        # Theorem 4/5: relative error well within a few / sqrt(K-1).
        assert sketch.estimate_f2() == pytest.approx(true_f2, rel=0.2)

    def test_unbiased_over_seeds(self, rng):
        keys, values = _stream(rng, n=5000, population=500)
        exact = DictVector()
        exact.update_batch(keys, values)
        true_f2 = exact.estimate_f2()
        estimates = [
            KArySchema(depth=1, width=256, seed=seed)
            .from_items(keys, values)
            .estimate_f2()
            for seed in range(60)
        ]
        mean = float(np.mean(estimates))
        sem = float(np.std(estimates) / np.sqrt(len(estimates)))
        assert abs(mean - true_f2) < 4 * sem + 1e-9

    def test_l2_norm_nonnegative_on_empty(self):
        schema = KArySchema(depth=3, width=64)
        assert schema.empty().l2_norm() == 0.0

    def test_f2_of_single_key(self):
        schema = KArySchema(depth=5, width=512, seed=8)
        sketch = schema.from_items([9], [10.0])
        assert sketch.estimate_f2() == pytest.approx(100.0)


class TestCombine:
    def test_combine_matches_stream_concatenation(self, rng):
        schema = KArySchema(depth=5, width=512, seed=9)
        k1, v1 = _stream(rng, n=3000)
        k2, v2 = _stream(rng, n=3000)
        merged = schema.from_items(np.concatenate([k1, k2]), np.concatenate([v1, v2]))
        summed = combine([1.0, 1.0], [schema.from_items(k1, v1), schema.from_items(k2, v2)])
        assert np.allclose(merged.table, summed.table)

    def test_subtraction_recovers_delta(self, rng):
        schema = KArySchema(depth=5, width=512, seed=10)
        k1, v1 = _stream(rng, n=3000)
        s_all = schema.from_items(k1, v1)
        s_half = schema.from_items(k1[:1000], v1[:1000])
        delta = s_all - s_half
        expected = schema.from_items(k1[1000:], v1[1000:])
        assert np.allclose(delta.table, expected.table)

    def test_scalar_multiplication(self, rng):
        schema = KArySchema(depth=3, width=64, seed=11)
        keys, values = _stream(rng, n=500)
        sketch = schema.from_items(keys, values)
        scaled = 2.5 * sketch
        assert np.allclose(scaled.table, 2.5 * np.asarray(sketch.table))

    def test_division_and_negation(self, rng):
        schema = KArySchema(depth=3, width=64, seed=11)
        keys, values = _stream(rng, n=500)
        sketch = schema.from_items(keys, values)
        assert np.allclose((sketch / 2.0).table, np.asarray(sketch.table) / 2.0)
        assert np.allclose((-sketch).table, -np.asarray(sketch.table))

    def test_combine_rejects_different_schemas(self):
        a = KArySchema(depth=3, width=64, seed=1).empty()
        b = KArySchema(depth=3, width=64, seed=2).empty()
        with pytest.raises(ValueError, match="schema"):
            _ = a + b

    def test_combine_rejects_foreign_types(self):
        a = KArySchema(depth=3, width=64, seed=1).empty()
        with pytest.raises(TypeError):
            a._linear_combination([(1.0, DictVector())])

    def test_combine_requires_terms(self):
        with pytest.raises(ValueError):
            combine([], [])

    def test_linearity_of_estimates(self, rng):
        """ESTIMATE over a linear combination = combination of ESTIMATEs
        row-wise (the property the forecasting module relies on)."""
        schema = KArySchema(depth=5, width=2048, seed=12)
        k1, v1 = _stream(rng, n=3000)
        k2, v2 = _stream(rng, n=3000)
        s1 = schema.from_items(k1, v1)
        s2 = schema.from_items(k2, v2)
        comb = combine([0.7, -0.3], [s1, s2])
        probe = np.unique(np.concatenate([k1, k2]))[:200]
        indices = schema.bucket_indices(probe)
        raw1 = np.take_along_axis(np.asarray(s1.table), indices, axis=1)
        raw2 = np.take_along_axis(np.asarray(s2.table), indices, axis=1)
        rawc = np.take_along_axis(np.asarray(comb.table), indices, axis=1)
        assert np.allclose(rawc, 0.7 * raw1 - 0.3 * raw2)


class TestLifecycle:
    def test_copy_is_independent(self):
        schema = KArySchema(depth=3, width=64, seed=13)
        original = schema.from_items([1], [5.0])
        duplicate = original.copy()
        duplicate.update(2, 7.0)
        assert original.total() == pytest.approx(5.0)
        assert duplicate.total() == pytest.approx(12.0)

    def test_reset(self):
        schema = KArySchema(depth=3, width=64, seed=13)
        sketch = schema.from_items([1, 2], [5.0, 6.0])
        sketch.reset()
        assert sketch.total() == 0.0

    def test_table_view_read_only(self):
        schema = KArySchema(depth=3, width=64, seed=13)
        sketch = schema.empty()
        with pytest.raises(ValueError):
            sketch.table[0, 0] = 1.0

    def test_nbytes(self):
        schema = KArySchema(depth=5, width=1024)
        assert schema.empty().nbytes == 5 * 1024 * 8
