"""Tests for the invertible k-ary sketch: MV candidates and recovery."""

import numpy as np
import pytest

from repro.sketch import (
    InvertibleKArySchema,
    InvertibleKArySketch,
    KArySchema,
    KArySketch,
    combine,
    dumps,
    kind_of,
    loads,
)


def _stream(rng, n=20000, population=2000):
    pop = rng.integers(0, 2**32, size=population, dtype=np.uint64)
    ranks = np.arange(1, population + 1, dtype=np.float64)
    probs = ranks**-1.0
    probs /= probs.sum()
    keys = pop[rng.choice(population, size=n, p=probs)]
    # Integral values: float64 sums of integers are order-independent, so
    # split/merged counter planes stay bit-exact (like real byte counts).
    values = rng.integers(40, 4000, size=n).astype(np.float64)
    return keys, values


@pytest.fixture
def inv_schema():
    return InvertibleKArySchema(depth=5, width=1024, seed=7)


class TestSchema:
    def test_empty_returns_invertible(self, inv_schema):
        sketch = inv_schema.empty()
        assert isinstance(sketch, InvertibleKArySketch)
        assert sketch.table.shape == (3, 5, 1024)

    def test_table_bytes_triples(self):
        plain = KArySchema(depth=5, width=1024, seed=7)
        inv = InvertibleKArySchema(depth=5, width=1024, seed=7)
        assert inv.table_bytes == 3 * plain.table_bytes

    def test_not_equal_to_plain_schema_either_direction(self, inv_schema):
        plain = KArySchema(depth=5, width=1024, seed=7)
        assert inv_schema != plain
        assert plain != inv_schema

    def test_equal_to_same_invertible(self, inv_schema):
        other = InvertibleKArySchema(depth=5, width=1024, seed=7)
        assert inv_schema == other
        assert hash(inv_schema) == hash(other)

    def test_same_hashes_as_plain(self, inv_schema):
        """Invertible schemas derive the identical per-row hash functions."""
        plain = KArySchema(depth=5, width=1024, seed=7)
        keys = np.arange(500, dtype=np.uint64)
        assert np.array_equal(
            inv_schema.bucket_indices(keys), plain.bucket_indices(keys)
        )

    def test_kind_and_table_shape(self, inv_schema):
        assert kind_of(inv_schema) == "invertible"
        assert inv_schema.empty().table.shape == (3, 5, 1024)

    def test_summary_from_table_shares_store(self, inv_schema):
        store = np.zeros((3, 5, 1024), dtype=np.float64)
        sketch = InvertibleKArySketch(inv_schema, store)
        assert isinstance(sketch, InvertibleKArySketch)
        sketch.update_batch([11], [3.0])
        assert store[0].sum() == pytest.approx(3.0 * 5)


class TestUpdateAndRecovery:
    def test_counters_bit_identical_to_plain(self, rng, inv_schema):
        keys, values = _stream(rng)
        plain = KArySchema(depth=5, width=1024, seed=7)
        inv = inv_schema.from_items(keys, values)
        ref = plain.from_items(keys, values)
        assert np.array_equal(inv.counters, ref.table)
        # Estimates therefore agree bit for bit.
        probe = np.unique(keys)[:100]
        assert np.array_equal(
            inv.estimate_batch(probe), ref.estimate_batch(probe)
        )
        assert inv.estimate_f2() == ref.estimate_f2()

    def test_single_dominant_key_wins_every_bucket(self, inv_schema):
        sketch = inv_schema.empty()
        sketch.update_batch([42], [100.0])
        rows = inv_schema.bucket_indices(np.array([42], dtype=np.uint64))
        for i in range(5):
            assert sketch.candidate_keys[i, rows[i, 0]] == 42
            assert sketch.candidate_votes[i, rows[i, 0]] == 100.0

    def test_recovers_injected_heavies(self, rng, inv_schema):
        keys, values = _stream(rng, n=30000)
        heavies = np.array([0x0A000001, 0x0A000002, 0x0A000003], np.uint64)
        keys = np.concatenate([keys, np.repeat(heavies, 200)])
        values = np.concatenate(
            [values, np.full(600, 50_000.0)]
        )
        order = rng.permutation(len(keys))
        sketch = inv_schema.from_items(keys[order], values[order])
        threshold = 0.05 * np.sqrt(sketch.estimate_f2())
        recovered = sketch.recover_candidates(threshold)
        assert set(heavies.tolist()) <= set(recovered.tolist())
        # Verification against the median estimator keeps them.
        ests = sketch.estimate_batch(recovered)
        for key in heavies:
            assert abs(ests[recovered == key][0]) >= threshold

    def test_zero_threshold_requires_strictly_positive_estimate(
        self, inv_schema
    ):
        empty = inv_schema.empty()
        assert len(empty.recover_candidates(0.0)) == 0

    def test_negative_threshold_raises(self, inv_schema):
        with pytest.raises(ValueError, match="threshold"):
            inv_schema.empty().recover_candidates(-1.0)

    def test_copy_and_reset(self, rng, inv_schema):
        keys, values = _stream(rng, n=2000)
        sketch = inv_schema.from_items(keys, values)
        clone = sketch.copy()
        assert np.array_equal(clone.table, sketch.table)
        clone.update_batch([5], [1.0])
        assert not np.array_equal(clone.table, sketch.table)
        sketch.reset()
        assert sketch.total() == 0.0
        assert not sketch.candidate_votes.any()
        assert not sketch.candidate_keys.any()

    def test_nbytes_counts_all_planes(self, inv_schema):
        assert inv_schema.empty().nbytes == 3 * 5 * 1024 * 8


class TestCombine:
    def test_cannot_combine_with_plain_kary(self, inv_schema):
        plain = KArySketch(KArySchema(depth=5, width=1024, seed=7))
        with pytest.raises(TypeError, match="combine"):
            inv_schema.empty().combine_into([(1.0, plain)])

    def test_difference_cancels_steady_keys(self, rng, inv_schema):
        """error = observed - predicted: only the changer should dominate."""
        keys, values = _stream(rng, n=10000)
        baseline = inv_schema.from_items(keys, values)
        changed = inv_schema.from_items(
            np.concatenate([keys, np.repeat(np.uint64(0x0A0000FF), 100)]),
            np.concatenate([values, np.full(100, 80_000.0)]),
        )
        error = combine([1.0, -1.0], [changed, baseline])
        threshold = 0.05 * np.sqrt(error.estimate_f2())
        recovered = error.recover_candidates(threshold)
        assert 0x0A0000FF in recovered.tolist()

    def test_split_merge_counters_bit_exact(self, rng, inv_schema):
        keys, values = _stream(rng)
        whole = inv_schema.from_items(keys, values)
        parts = [
            inv_schema.from_items(keys[i::3], values[i::3]) for i in range(3)
        ]
        merged = combine([1.0] * 3, parts)
        # Integral values: counter sums are order-independent exactly.
        assert np.array_equal(merged.counters, whole.counters)

    def test_split_merge_recovers_heavies(self, rng, inv_schema):
        keys, values = _stream(rng, n=30000)
        heavies = np.array([0x0A000010, 0x0A000020], np.uint64)
        keys = np.concatenate([keys, np.repeat(heavies, 300)])
        values = np.concatenate([values, np.full(600, 60_000.0)])
        order = rng.permutation(len(keys))
        keys, values = keys[order], values[order]
        parts = [
            inv_schema.from_items(keys[i::4], values[i::4]) for i in range(4)
        ]
        merged = combine([1.0] * 4, parts)
        threshold = 0.05 * np.sqrt(merged.estimate_f2())
        recovered = merged.recover_candidates(threshold)
        assert set(heavies.tolist()) <= set(recovered.tolist())

    def test_empty_terms_zero_the_candidate_planes(self, rng, inv_schema):
        keys, values = _stream(rng, n=1000)
        sketch = inv_schema.from_items(keys, values)
        sketch.combine_into([])
        assert sketch.total() == 0.0
        assert not sketch.candidate_keys.any()
        assert not sketch.candidate_votes.any()


class TestSerialization:
    def test_round_trip_preserves_all_planes(self, rng, inv_schema):
        keys, values = _stream(rng, n=5000)
        sketch = inv_schema.from_items(keys, values)
        restored = loads(dumps(sketch))
        assert isinstance(restored, InvertibleKArySketch)
        assert restored.schema == inv_schema
        assert np.array_equal(restored.table, sketch.table)
        assert np.array_equal(restored.candidate_keys, sketch.candidate_keys)

    def test_round_trip_recovery_identical(self, rng, inv_schema):
        keys, values = _stream(rng, n=5000)
        keys = np.concatenate([keys, np.repeat(np.uint64(0xBEEF), 100)])
        values = np.concatenate([values, np.full(100, 40_000.0)])
        sketch = inv_schema.from_items(keys, values)
        restored = loads(dumps(sketch), schema=inv_schema)
        threshold = 0.05 * np.sqrt(sketch.estimate_f2())
        assert np.array_equal(
            restored.recover_candidates(threshold),
            sketch.recover_candidates(threshold),
        )


class TestNumpyFallback:
    def test_votes_bit_identical_without_kernels(self, rng, monkeypatch):
        """The kernels-off world maintains identical candidate planes."""
        import repro.hashing._kernels as _kernels

        keys, values = _stream(rng, n=8000)
        with_kernels = InvertibleKArySchema(depth=5, width=512, seed=3)
        fast = with_kernels.from_items(keys, values)

        monkeypatch.setattr(_kernels, "_KERNELS", None)
        without = InvertibleKArySchema(depth=5, width=512, seed=3)
        slow = without.from_items(keys, values)

        assert np.array_equal(fast.counters, slow.counters)
        assert np.array_equal(fast.candidate_keys, slow.candidate_keys)
        assert np.array_equal(fast.candidate_votes, slow.candidate_votes)

    def test_combine_merge_bit_identical_without_kernels(
        self, rng, monkeypatch
    ):
        """The fused merge kernel and the NumPy fold agree bit for bit."""
        import repro.hashing._kernels as _kernels

        keys_a, values_a = _stream(rng, n=6000)
        keys_b, values_b = _stream(rng, n=6000)
        with_kernels = InvertibleKArySchema(depth=5, width=512, seed=9)
        fast = combine(
            [0.4, -0.6],
            [
                with_kernels.from_items(keys_a, values_a),
                with_kernels.from_items(keys_b, values_b),
            ],
        )

        monkeypatch.setattr(_kernels, "_KERNELS", None)
        without = InvertibleKArySchema(depth=5, width=512, seed=9)
        slow = combine(
            [0.4, -0.6],
            [
                without.from_items(keys_a, values_a),
                without.from_items(keys_b, values_b),
            ],
        )
        assert np.array_equal(fast.counters, slow.counters)
        assert np.array_equal(fast.candidate_keys, slow.candidate_keys)
        assert np.array_equal(fast.candidate_votes, slow.candidate_votes)

    def test_polynomial_family_votes(self, rng):
        """The polynomial family routes through the generic vote path."""
        schema = InvertibleKArySchema(
            depth=4, width=256, seed=5, family="polynomial"
        )
        keys, values = _stream(rng, n=4000)
        keys = np.concatenate([keys, np.repeat(np.uint64(77), 50)])
        values = np.concatenate([values, np.full(50, 30_000.0)])
        sketch = schema.from_items(keys, values)
        threshold = 0.05 * np.sqrt(sketch.estimate_f2())
        assert 77 in sketch.recover_candidates(threshold).tolist()
