"""Batched sketch paths against their per-row and per-object references.

``tables_estimate_f2`` over stacked tables must equal
:meth:`KArySketch.estimate_f2` bit for bit, and the per-family batched
update paths (k-ary, Count-Min, Count Sketch) must match their scalar
references.
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


def test_tables_estimate_f2_validates_width(schema, rng):
    tables = np.stack([s.table for s in _filled_sketches(schema, rng, t_len=2)])
    with pytest.raises(ValueError, match="width"):
        tables_estimate_f2(tables, schema.width + 1)


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
