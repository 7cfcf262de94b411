"""Tests for the keyed update stream glue."""

import numpy as np
import pytest

from repro.streams import (
    IntervalStream,
    RandomizedIntervalSlicer,
    StreamItem,
    make_records,
)
from repro.streams.model import KeyedUpdates


@pytest.fixture
def records():
    return make_records(
        timestamps=[10.0, 20.0, 320.0, 330.0, 650.0],
        dst_ips=[1, 1, 2, 3, 2],
        byte_counts=[100, 200, 300, 400, 500],
    )


class TestIntervalStream:
    def test_batches(self, records):
        batches = list(IntervalStream(records, interval_seconds=300.0))
        assert [b.index for b in batches] == [0, 1, 2]
        assert batches[0].keys.tolist() == [1, 1]
        assert batches[0].values.tolist() == [100.0, 200.0]
        assert batches[2].values.tolist() == [500.0]

    def test_key_scheme_by_name(self, records):
        batches = list(
            IntervalStream(records, 300.0, key_scheme="dst_ip", value_scheme="count")
        )
        assert batches[0].values.tolist() == [1.0, 1.0]

    def test_duration(self, records):
        stream = IntervalStream(records, interval_seconds=60.0)
        assert [stream.slicer.duration_of(b.index) for b in stream] == [60.0] * 11

    def test_normalize_by_duration(self, records):
        batches = list(
            IntervalStream(records, 300.0, normalize_by_duration=True)
        )
        assert batches[0].values.tolist() == [100.0 / 300.0, 200.0 / 300.0]

    def test_randomized_slicer(self, records):
        slicer = RandomizedIntervalSlicer(300.0, seed=0)
        batches = list(IntervalStream(records, slicer=slicer))
        assert sum(len(b) for b in batches) == len(records)

    def test_items_iteration(self):
        batch = KeyedUpdates(
            index=0,
            keys=np.array([1, 2], dtype=np.uint64),
            values=np.array([3.0, 4.0]),
        )
        assert list(batch.items()) == [StreamItem(1, 3.0), StreamItem(2, 4.0)]
        assert len(batch) == 2

    def test_stream_reiterable(self, records):
        stream = IntervalStream(records, interval_seconds=300.0)
        assert len(list(stream)) == len(list(stream))

    def test_validates_records(self):
        with pytest.raises(ValueError):
            IntervalStream(np.zeros(3), interval_seconds=300.0)
