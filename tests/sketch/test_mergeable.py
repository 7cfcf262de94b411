"""Tests for the uniform mergeable-summary API (COMBINE everywhere)."""

import numpy as np
import pytest

from repro.detection.grouptesting import GroupTestingSchema
from repro.sketch import (
    CountMinSchema,
    CountSketchSchema,
    KArySchema,
    combine,
    kind_of,
    merge,
)

SCHEMA_FACTORIES = {
    "kary": lambda seed=7: KArySchema(depth=3, width=256, seed=seed),
    "countmin": lambda seed=7: CountMinSchema(depth=3, width=256, seed=seed),
    "countsketch": lambda seed=7: CountSketchSchema(depth=3, width=256, seed=seed),
    "grouptesting": lambda seed=7: GroupTestingSchema(
        depth=3, width=128, key_bits=16, seed=seed
    ),
}


@pytest.fixture(params=sorted(SCHEMA_FACTORIES))
def kind(request):
    return request.param


@pytest.fixture
def schema(kind):
    return SCHEMA_FACTORIES[kind]()


@pytest.fixture
def items(rng):
    keys_a = rng.integers(0, 2**32, 400, dtype=np.uint64)
    keys_b = rng.integers(0, 2**32, 300, dtype=np.uint64)
    values_a = rng.integers(1, 1000, 400).astype(np.float64)
    values_b = rng.integers(1, 1000, 300).astype(np.float64)
    return keys_a, values_a, keys_b, values_b


class TestCombine:
    def test_combine_equals_union_stream(self, schema, items):
        """combine(from_items(a), from_items(b)) == from_items(a ++ b)."""
        ka, va, kb, vb = items
        merged = combine(
            [1.0, 1.0], [schema.from_items(ka, va), schema.from_items(kb, vb)]
        )
        direct = schema.from_items(
            np.concatenate([ka, kb]), np.concatenate([va, vb])
        )
        assert np.array_equal(merged._table, direct._table)

    def test_merge_helper(self, schema, items):
        ka, va, kb, vb = items
        parts = [schema.from_items(ka, va), schema.from_items(kb, vb)]
        assert np.array_equal(
            merge(parts)._table, combine([1.0, 1.0], parts)._table
        )

    def test_combine_with_coefficients(self, schema, items):
        ka, va, kb, vb = items
        a, b = schema.from_items(ka, va), schema.from_items(kb, vb)
        out = combine([2.0, -1.0], [a, b])
        assert np.allclose(out._table, 2.0 * a._table - b._table)

    def test_combine_rejects_different_schemas(self, kind, items):
        ka, va, _, _ = items
        a = SCHEMA_FACTORIES[kind](seed=7).from_items(ka, va)
        b = SCHEMA_FACTORIES[kind](seed=8).from_items(ka, va)
        with pytest.raises(ValueError, match="schema"):
            combine([1.0, 1.0], [a, b])

    def test_combine_accepts_equal_rebuilt_schema(self, kind, items):
        """Structurally equal schemas (same explicit seed) are compatible."""
        ka, va, kb, vb = items
        a = SCHEMA_FACTORIES[kind](seed=7).from_items(ka, va)
        b = SCHEMA_FACTORIES[kind](seed=7).from_items(kb, vb)
        direct = SCHEMA_FACTORIES[kind](seed=7).from_items(
            np.concatenate([ka, kb]), np.concatenate([va, vb])
        )
        assert np.array_equal(merge([a, b])._table, direct._table)

    def test_combine_rejects_mixed_types(self, items):
        ka, va, _, _ = items
        a = SCHEMA_FACTORIES["kary"]().from_items(ka, va)
        b = SCHEMA_FACTORIES["countmin"]().from_items(ka, va)
        with pytest.raises(TypeError):
            combine([1.0, 1.0], [a, b])

    def test_combine_requires_terms(self):
        with pytest.raises(ValueError, match="at least one"):
            combine([], [])


class TestUniformSurface:
    def test_kind_of(self, kind, schema):
        assert kind_of(schema) == kind

    def test_kind_of_rejects_unknown(self):
        with pytest.raises(TypeError):
            kind_of(object())

    def test_reset_and_copy(self, schema, items):
        ka, va, _, _ = items
        sketch = schema.from_items(ka, va)
        clone = sketch.copy()
        sketch.reset()
        assert not sketch._table.any()
        assert clone._table.any()  # the copy is independent
