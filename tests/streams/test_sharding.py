"""Tests for interval-aligned record chunking."""

import numpy as np
import pytest

from repro.streams import iter_interval_chunks, make_records


@pytest.fixture
def records(rng):
    n = 5000
    return make_records(
        timestamps=np.sort(rng.uniform(0, 1500, n)),
        dst_ips=rng.integers(0, 5000, n),
        byte_counts=rng.integers(40, 1500, n),
    )


class TestIterIntervalChunks:
    def test_chunks_never_straddle_intervals(self, records):
        for chunk in iter_interval_chunks(records, 300.0, chunk_records=333):
            indices = (chunk["timestamp"] // 300.0).astype(int)
            assert len(np.unique(indices)) == 1
            assert len(chunk) <= 333

    def test_concatenation_reproduces_stream(self, records):
        chunks = list(iter_interval_chunks(records, 300.0, chunk_records=500))
        assert np.array_equal(np.concatenate(chunks), records)

    def test_unsorted_input_is_sorted(self, records, rng):
        shuffled = records[rng.permutation(len(records))]
        chunks = list(iter_interval_chunks(shuffled, 300.0))
        assert np.array_equal(np.concatenate(chunks), records)

    def test_no_cap_yields_one_chunk_per_interval(self, records):
        chunks = list(iter_interval_chunks(records, 300.0))
        assert len(chunks) == 5

    def test_empty_input(self):
        assert list(iter_interval_chunks(make_records([], [], []), 300.0)) == []

    def test_invalid_args(self, records):
        with pytest.raises(ValueError, match="interval_seconds"):
            list(iter_interval_chunks(records, 0.0))
        with pytest.raises(ValueError, match="chunk_records"):
            list(iter_interval_chunks(records, 300.0, chunk_records=0))
