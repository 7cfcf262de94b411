"""Equivalence tests for the sketch tensor (:class:`SketchStack`).

Every batched operation on the stack must be bit-identical to the
corresponding per-object loop -- and the per-family batched update paths
(k-ary, Count-Min, Count Sketch) must match their scalar references.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch import (
    CountMinSchema,
    CountMinSketch,
    CountSketch,
    CountSketchSchema,
    KArySchema,
    KArySketch,
    SketchStack,
    tables_estimate_f2,
)


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=512, seed=3)


def _filled_sketches(schema, rng, t_len=12, n=400):
    out = []
    for _ in range(t_len):
        s = KArySketch(schema)
        keys = rng.integers(0, 2**32, size=n, dtype=np.uint64)
        values = rng.normal(50.0, 20.0, size=n)
        s.update_batch(keys, values)
        out.append(s)
    return out


def test_from_sketches_roundtrip(schema, rng):
    sketches = _filled_sketches(schema, rng)
    stack = SketchStack.from_sketches(sketches)
    assert len(stack) == len(sketches)
    assert stack.shape == (len(sketches), schema.depth, schema.width)
    for t, s in enumerate(sketches):
        assert np.array_equal(np.asarray(stack.as_sketch(t).table), s.table)


def test_from_sketches_rejects_mixed_schemas(schema, rng):
    other = KArySchema(depth=5, width=512, seed=4)
    with pytest.raises(ValueError, match="schema"):
        SketchStack.from_sketches([KArySketch(schema), KArySketch(other)])


def test_from_sketches_rejects_empty():
    with pytest.raises(ValueError):
        SketchStack.from_sketches([])


def test_iteration_yields_views(schema, rng):
    stack = SketchStack.from_sketches(_filled_sketches(schema, rng, t_len=4))
    views = list(stack)
    assert len(views) == 4
    # Views share memory with the tensor.
    views[0].update(np.uint64(123), 1.0)
    assert np.array_equal(np.asarray(views[0].table), stack.tables[0])


def test_slicing(schema, rng):
    stack = SketchStack.from_sketches(_filled_sketches(schema, rng, t_len=8))
    sub = stack[2:5]
    assert isinstance(sub, SketchStack)
    assert len(sub) == 3
    assert np.array_equal(sub.tables, stack.tables[2:5])


def test_tables_property_is_read_only(schema, rng):
    stack = SketchStack.from_sketches(_filled_sketches(schema, rng, t_len=2))
    with pytest.raises(ValueError):
        stack.tables[0, 0, 0] = 1.0


def test_estimate_f2_all_matches_per_sketch(schema, rng):
    sketches = _filled_sketches(schema, rng)
    stack = SketchStack.from_sketches(sketches)
    got = stack.estimate_f2_all()
    expected = np.array([s.estimate_f2() for s in sketches])
    assert np.array_equal(got, expected)


def test_totals_match_per_sketch(schema, rng):
    sketches = _filled_sketches(schema, rng)
    stack = SketchStack.from_sketches(sketches)
    expected = np.array([float(np.sum(s.table[0])) for s in sketches])
    assert np.array_equal(stack.totals(), expected)


def test_tables_estimate_f2_validates_width(schema, rng):
    stack = SketchStack.from_sketches(_filled_sketches(schema, rng, t_len=2))
    with pytest.raises(ValueError, match="width"):
        tables_estimate_f2(np.asarray(stack.tables), schema.width + 1)


def test_tables_estimate_f2_scalar_slice(schema, rng):
    [s] = _filled_sketches(schema, rng, t_len=1)
    got = tables_estimate_f2(s.table, schema.width)
    assert float(got) == s.estimate_f2()


# -- batched update/estimate equivalence across sketch families ------------


def _reference_kary_update(schema, keys, values):
    table = np.zeros((schema.depth, schema.width), dtype=np.float64)
    for i, h in enumerate(schema.hashes):
        np.add.at(table[i], h.hash_array(keys), values)
    return table


def test_kary_update_batch_matches_scalar_updates(schema, rng):
    keys = rng.integers(0, 2**32, size=300, dtype=np.uint64)
    values = rng.normal(10.0, 4.0, size=300)
    batched = KArySketch(schema)
    batched.update_batch(keys, values)
    scalar = KArySketch(schema)
    for k, v in zip(keys.tolist(), values.tolist()):
        scalar.update(np.uint64(k), v)
    assert np.allclose(batched.table, scalar.table)
    assert np.array_equal(
        np.asarray(batched.table), _reference_kary_update(schema, keys, values)
    )


def test_countmin_update_estimate_batch(rng):
    schema = CountMinSchema(depth=4, width=1024, seed=9)
    keys = rng.integers(0, 2**32, size=300, dtype=np.uint64)
    values = rng.uniform(0.0, 20.0, size=300)
    batched = CountMinSketch(schema)
    batched.update_batch(keys, values)
    expected = np.zeros((schema.depth, schema.width), dtype=np.float64)
    for i, h in enumerate(schema.hashes):
        np.add.at(expected[i], h.hash_array(keys), values)
    assert np.array_equal(np.asarray(batched.table), expected)
    probe = keys[:40]
    per_key = np.array([batched.estimate(np.uint64(k)) for k in probe.tolist()])
    assert np.array_equal(batched.estimate_batch(probe), per_key)


def test_countsketch_update_estimate_batch(rng):
    schema = CountSketchSchema(depth=5, width=1024, seed=11)
    keys = rng.integers(0, 2**32, size=300, dtype=np.uint64)
    values = rng.normal(5.0, 2.0, size=300)
    batched = CountSketch(schema)
    batched.update_batch(keys, values)
    expected = np.zeros((schema.depth, schema.width), dtype=np.float64)
    for i, (bh, sh) in enumerate(zip(schema.bucket_hashes, schema.sign_hashes)):
        signed = (2.0 * sh.hash_array(keys) - 1.0) * values
        np.add.at(expected[i], bh.hash_array(keys), signed)
    assert np.array_equal(np.asarray(batched.table), expected)
    probe = keys[:40]
    per_key = np.array([batched.estimate(np.uint64(k)) for k in probe.tolist()])
    assert np.array_equal(batched.estimate_batch(probe), per_key)


def test_kary_hash_all_rows_matches_bucket_indices(schema, rng):
    keys = rng.integers(0, 2**32, size=128, dtype=np.uint64)
    expected = np.stack([h.hash_array(keys) for h in schema.hashes])
    assert np.array_equal(schema.bucket_indices(keys), expected)
