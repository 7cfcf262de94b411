"""Tests for FOLD: width halving across every mergeable summary kind."""

import numpy as np
import pytest

from repro.detection.grouptesting import GroupTestingSchema
from repro.sketch import (
    CountMinSchema,
    CountSketchSchema,
    InvertibleKArySchema,
    KArySchema,
    combine,
    fold_width,
    half_width_schema,
)

SCHEMA_FACTORIES = {
    "kary": lambda **kw: KArySchema(depth=3, width=256, **kw),
    "countmin": lambda **kw: CountMinSchema(depth=3, width=256, **kw),
    "countsketch": lambda **kw: CountSketchSchema(depth=3, width=256, **kw),
    "invertible": lambda **kw: InvertibleKArySchema(depth=3, width=256, **kw),
    "grouptesting": lambda **kw: GroupTestingSchema(
        depth=3, width=128, key_bits=16, **kw
    ),
}


@pytest.fixture(params=sorted(SCHEMA_FACTORIES))
def kind(request):
    return request.param


@pytest.fixture
def schema(kind):
    return SCHEMA_FACTORIES[kind](seed=7)


def _int_items(rng, n=4000):
    keys = rng.integers(0, 2**32, n, dtype=np.uint64)
    values = rng.integers(1, 1000, n).astype(np.float64)
    return keys, values


def _tables_equal(a, b):
    # The invertible sketch's counter plane folds exactly; its candidate
    # planes are MV-merged (best-effort, like COMBINE), so the exactness
    # claim applies to counters only.
    ta = np.asarray(getattr(a, "counters", a.table))
    tb = np.asarray(getattr(b, "counters", b.table))
    return np.array_equal(ta, tb)


class TestFoldExactness:
    def test_fold_equals_direct_half_width_build(self, schema, rng):
        """Integer-valued updates: the folded table is bit-for-bit the
        table the half-width schema would have built from the stream."""
        keys, values = _int_items(rng)
        folded = fold_width(schema.from_items(keys, values))
        direct = schema.folded().from_items(keys, values)
        assert folded.schema == schema.folded()
        assert _tables_equal(folded, direct)

    def test_double_fold_equals_quarter_width_build(self, schema, rng):
        keys, values = _int_items(rng)
        twice = fold_width(fold_width(schema.from_items(keys, values)))
        direct = schema.folded().folded().from_items(keys, values)
        assert _tables_equal(twice, direct)

    def test_float_updates_allclose(self, schema, rng):
        """Float updates regroup per-cell summation order, so equality
        holds up to float associativity, not bit-for-bit."""
        keys = rng.integers(0, 2**32, 4000, dtype=np.uint64)
        values = rng.normal(100.0, 30.0, 4000)
        folded = fold_width(schema.from_items(keys, values))
        direct = schema.folded().from_items(keys, values)
        assert np.allclose(
            np.asarray(getattr(folded, "counters", folded.table)),
            np.asarray(getattr(direct, "counters", direct.table)),
        )

    def test_fold_commutes_with_combine(self, schema, rng):
        keys_a, values_a = _int_items(rng)
        keys_b, values_b = _int_items(rng, n=3000)
        a = schema.from_items(keys_a, values_a)
        b = schema.from_items(keys_b, values_b)
        half = half_width_schema(schema)
        fold_then_combine = combine(
            [1.0, -0.5],
            [fold_width(a, schema=half), fold_width(b, schema=half)],
        )
        combine_then_fold = fold_width(
            combine([1.0, -0.5], [a, b]), schema=half
        )
        assert _tables_equal(fold_then_combine, combine_then_fold)

    def test_estimates_stay_unbiased(self, schema, kind, rng):
        """A planted heavy key is still estimated well at half width."""
        if kind == "grouptesting":
            pytest.skip("group-testing estimates route through recovery")
        keys, values = _int_items(rng)
        heavy = np.uint64(424242)
        keys = np.concatenate([keys, np.repeat(heavy, 100)])
        values = np.concatenate([values, np.full(100, 50_000.0)])
        folded = fold_width(schema.from_items(keys, values))
        estimate = float(
            folded.estimate_batch(np.asarray([heavy], dtype=np.uint64))[0]
        )
        assert estimate == pytest.approx(5e6, rel=0.25)


class TestFoldedSchema:
    """``folded()`` reuses the parent's row hashes instead of drawing them
    again, so nothing but these checks -- the archive and the end-to-end
    oracle both fold through ``folded()`` -- would see a wrong one."""

    @pytest.mark.parametrize("family", ["tabulation", "polynomial", "two-universal"])
    def test_folded_equals_a_fresh_half_width_schema(self, kind, family, rng):
        schema = SCHEMA_FACTORIES[kind](seed=7, family=family)
        keys = rng.integers(0, 2**32, 5000, dtype=np.uint64)
        parent_indices = schema.bucket_indices(keys)
        folded = schema
        for _ in range(2):
            folded = folded.folded()
            fresh = type(schema).from_config(
                schema.depth, folded.width, 7, family, schema.key_bits
            )
            assert folded == fresh
            assert folded.table_shape == fresh.table_shape
            indices = folded.bucket_indices(keys)
            np.testing.assert_array_equal(indices, fresh.bucket_indices(keys))
            np.testing.assert_array_equal(indices, parent_indices % folded.width)
            assert [h.num_buckets for h in folded.hashes] == [folded.width] * 3
            if kind == "countsketch":
                np.testing.assert_array_equal(folded.signs(keys), fresh.signs(keys))
                assert folded.sign_hashes is schema.sign_hashes
            if family == "tabulation":
                for row, parent_row in zip(folded.hashes, schema.hashes):
                    for name in ("_t0", "_t1", "_t2"):
                        assert np.shares_memory(
                            getattr(row, name), getattr(parent_row, name)
                        )
        # Folding left the parent as it was.
        assert [h.num_buckets for h in schema.hashes] == [schema.width] * 3
        np.testing.assert_array_equal(schema.bucket_indices(keys), parent_indices)


class TestFoldValidation:
    def test_entropy_seed_refused(self, kind):
        schema = SCHEMA_FACTORIES[kind](seed=None)
        sketch = schema.from_items(
            np.arange(10, dtype=np.uint64), np.ones(10)
        )
        with pytest.raises(ValueError, match="seed"):
            fold_width(sketch)
        with pytest.raises(ValueError, match="seed"):
            half_width_schema(schema)

    def test_odd_width_refused(self):
        schema = KArySchema(depth=2, width=255, seed=3)
        sketch = schema.from_items(
            np.arange(10, dtype=np.uint64), np.ones(10)
        )
        with pytest.raises(ValueError, match="odd width"):
            fold_width(sketch)

    def test_mismatched_folded_schema_refused(self, schema, rng):
        keys, values = _int_items(rng, n=100)
        sketch = schema.from_items(keys, values)
        wrong = SCHEMA_FACTORIES[
            "kary" if not isinstance(schema, KArySchema) else "countmin"
        ](seed=7)
        with pytest.raises(TypeError):
            fold_width(sketch, schema=wrong)

    def test_wrong_width_folded_schema_refused(self, rng):
        schema = KArySchema(depth=3, width=256, seed=7)
        keys, values = _int_items(rng, n=100)
        sketch = schema.from_items(keys, values)
        with pytest.raises(ValueError):
            fold_width(
                sketch, schema=KArySchema(depth=3, width=64, seed=7)
            )


class TestInvertibleCandidates:
    def test_fold_preserves_heavy_changer_recovery(self, rng):
        """Counters fold exactly; MV-merged candidate planes still
        surface a planted heavy changer at half width."""
        schema = InvertibleKArySchema(depth=5, width=512, seed=9)
        keys, values = _int_items(rng, n=6000)
        heavy = np.uint64(31337)
        keys = np.concatenate([keys, np.repeat(heavy, 200)])
        values = np.concatenate([values, np.full(200, 40_000.0)])
        folded = fold_width(schema.from_items(keys, values))
        threshold = 0.05 * np.sqrt(folded.estimate_f2())
        assert int(heavy) in folded.recover_candidates(threshold).tolist()
