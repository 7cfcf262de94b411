"""One vetting rule for caller keys.

Every summary reads keys through ``SummaryConvention.as_key_array``: a
1-D sequence or array of integers in ``[0, 2**64)``, or ``ValueError``.
A plain uint64 cast would update key 1 for ``1.7``, key ``2**64 - 3``
for ``-3`` and keys 0/1 for booleans; the session's columnar ingest
applies the same rule before it buffers anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import StreamingSession
from repro.detection.grouptesting import GroupTestingSchema
from repro.sketch import (
    CountMinSchema,
    CountSketchSchema,
    DenseSchema,
    ExactSchema,
    InvertibleKArySchema,
    KArySchema,
    KeyIndex,
    SummaryConvention,
)
from repro.streams import KeyedUpdates

SCHEMAS = {
    "kary": lambda: KArySchema(depth=3, width=64, seed=1),
    "countmin": lambda: CountMinSchema(depth=3, width=64, seed=1),
    "countsketch": lambda: CountSketchSchema(depth=3, width=64, seed=1),
    "invertible": lambda: InvertibleKArySchema(depth=3, width=64, seed=1),
    "grouptesting": lambda: GroupTestingSchema(depth=3, width=64, seed=1),
    "exact": ExactSchema,
    "dense": lambda: DenseSchema(KeyIndex(np.arange(8, dtype=np.uint64))),
}

#: (batch form, single-key form) of each rejected input.
BAD_KEYS = {
    "float": ([1.7], 1.7),
    "negative": (np.array([-3]), -3),
    "bool": ([True], True),
    "2-D": (np.array([[1, 2]], dtype=np.uint64), np.array([1, 2])),
}


@pytest.mark.parametrize("bad", sorted(BAD_KEYS))
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_bad_keys_raise_from_every_entry_point(kind, bad):
    batch, single = BAD_KEYS[bad]
    summary = SCHEMAS[kind]().empty()
    n = np.asarray(batch).size
    with pytest.raises(ValueError, match="integers in"):
        summary.update_batch(batch, np.ones(n))
    with pytest.raises(ValueError, match="integers in"):
        summary.estimate_batch(batch)
    with pytest.raises(ValueError, match="integers in"):
        summary.update(single, 1.0)
    with pytest.raises(ValueError, match="integers in"):
        summary.estimate(single)
    assert summary.estimate_f2() == 0.0


@pytest.mark.parametrize(
    "keys",
    [
        np.array([1, 5, 5], dtype=np.uint64),
        np.array([1, 5, 5], dtype=np.int64),
        np.array([1, 5, 5], dtype=np.uint32),
        [1, 5, 5],
        (np.uint64(1), np.int64(5), 5),
    ],
    ids=["uint64", "int64", "uint32", "list", "numpy-scalars"],
)
def test_integer_keys_accepted(keys):
    sketch = KArySchema(depth=3, width=64, seed=1).empty()
    sketch.update_batch(keys, [1.0, 2.0, 3.0])
    assert sketch.estimate_batch(keys).shape == (3,)
    assert SummaryConvention.as_key_array(keys).tolist() == [1, 5, 5]


def test_uint64_array_passes_through_uncopied():
    keys = np.arange(10, dtype=np.uint64)
    assert SummaryConvention.as_key_array(keys) is keys


def test_full_64_bit_range_accepted():
    top = 2**64 - 1
    assert SummaryConvention.as_key_array([0, top]).tolist() == [0, top]
    sketch = KArySchema(depth=3, width=64, seed=1, family="polynomial").empty()
    sketch.update(top, 4.0)
    assert sketch.estimate_batch([top]).shape == (1,)
    exact = ExactSchema().empty()
    exact.update(top, 4.0)
    assert exact.estimate(top) == 4.0


@pytest.mark.parametrize(
    "keys",
    [[], (), np.array([]), np.array([], dtype=np.float64),
     np.array([], dtype=bool)],
    ids=["list", "tuple", "default", "float64", "bool"],
)
def test_empty_input_of_any_dtype_is_valid(keys):
    out = SummaryConvention.as_key_array(keys)
    assert out.dtype == np.uint64 and out.shape == (0,)


@pytest.mark.parametrize("bad", sorted(BAD_KEYS))
def test_ingest_columns_rejects_before_state_changes(bad):
    schema = KArySchema(depth=3, width=64, seed=1)
    session = StreamingSession(schema, "ewma", interval_seconds=60.0)
    good = np.arange(4, dtype=np.uint64)
    session.ingest_columns(KeyedUpdates(index=1, keys=good, values=np.ones(4)))
    batch = BAD_KEYS[bad][0]
    values = np.ones(np.asarray(batch).shape)
    with pytest.raises(ValueError, match="integers in"):
        session.ingest_columns(KeyedUpdates(index=3, keys=batch, values=values))
    assert session.current_interval == 1
    assert session.records_ingested == 4
    assert session.watermark == 60.0
    assert session._interval.buffered == 4
