"""Columnar zero-copy batch ingest: blocks are views, not copies.

``iter_interval_columns`` extracts the key/value columns once per trace
and yields :class:`KeyedUpdates` slices of them; these tests pin down
the two halves of that contract -- the blocks reproduce record-chunk
iteration exactly (same interval split, same rows in the same order),
and they alias the trace-wide column arrays (``np.shares_memory``), so
feeding them to the fused UPDATE kernels moves zero bytes.
"""

import numpy as np
import pytest

from repro.streams import (
    IntervalStream,
    iter_interval_chunks,
    iter_interval_columns,
    make_key_scheme,
    make_records,
    make_value_scheme,
)

INTERVAL = 300.0


@pytest.fixture
def records(rng):
    n = 12000
    return make_records(
        timestamps=np.sort(rng.uniform(0, 3000, n)),
        dst_ips=rng.integers(0, 5000, n).astype(np.uint32),
        byte_counts=rng.pareto(1.3, n) * 500 + 40,
    )


class TestIterIntervalColumns:
    def test_matches_record_chunks(self, records):
        key_scheme = make_key_scheme("dst_ip")
        value_scheme = make_value_scheme("bytes")
        chunks = list(iter_interval_chunks(records, INTERVAL))
        blocks = list(iter_interval_columns(records, INTERVAL))
        assert len(blocks) == len(chunks)
        for block, chunk in zip(blocks, chunks):
            assert block.index == int(chunk["timestamp"][0] // INTERVAL)
            assert len(block) == len(chunk)
            np.testing.assert_array_equal(
                block.keys, key_scheme.extract(chunk).astype(np.uint64)
            )
            np.testing.assert_array_equal(
                block.values, value_scheme.extract(chunk).astype(np.float64)
            )

    def test_blocks_are_zero_copy_views(self, records):
        blocks = list(iter_interval_columns(records, INTERVAL))
        assert len(blocks) > 1
        first = blocks[0]
        assert first.keys.base is not None  # a view, not an owner
        for block in blocks[1:]:
            # Every block aliases the same trace-wide column arrays
            # (disjoint slices, so compare bases rather than ranges).
            assert block.keys.base is first.keys.base
            assert block.values.base is first.values.base
        for block in blocks:
            assert block.keys.dtype == np.uint64
            assert block.values.dtype == np.float64
            assert block.keys.flags.c_contiguous  # unit-stride slices
            assert block.values.flags.c_contiguous

    def test_chunk_records_cap_preserves_order(self, records):
        whole = list(iter_interval_columns(records, INTERVAL))
        capped = list(
            iter_interval_columns(records, INTERVAL, chunk_records=512)
        )
        assert all(len(b) <= 512 for b in capped)
        for index in {b.index for b in whole}:
            ref = [b for b in whole if b.index == index]
            got = [b for b in capped if b.index == index]
            np.testing.assert_array_equal(
                np.concatenate([b.keys for b in got]), ref[0].keys
            )
            np.testing.assert_array_equal(
                np.concatenate([b.values for b in got]), ref[0].values
            )
        bases = {id(b.keys.base) for b in capped}
        assert bases == {id(capped[0].keys.base)}  # capped blocks stay views
        assert capped[0].keys.base is not None

    def test_unsorted_input_sorted_like_chunks(self, rng, records):
        shuffled = records[rng.permutation(len(records))]
        ref = list(iter_interval_columns(records, INTERVAL))
        got = list(iter_interval_columns(shuffled, INTERVAL))
        assert [b.index for b in got] == [b.index for b in ref]
        np.testing.assert_array_equal(
            np.concatenate([b.values for b in got]),
            np.concatenate([b.values for b in ref]),
        )

    def test_empty_and_validation(self, records):
        empty = records[:0]
        assert list(iter_interval_columns(empty, INTERVAL)) == []
        with pytest.raises(ValueError):
            list(iter_interval_columns(records, 0.0))
        with pytest.raises(ValueError):
            list(iter_interval_columns(records, INTERVAL, chunk_records=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamp_rejected_before_any_block(self, bad):
        # Unchecked, a NaN lands in the last block's count and -inf opens
        # a block at interval -2**63.
        records = make_records(
            timestamps=np.array([1.0, 2.0, 61.0, bad]),
            dst_ips=np.arange(4),
            byte_counts=np.full(4, 100),
        )
        blocks = iter_interval_columns(records, 60.0)
        with pytest.raises(ValueError, match="finite"):
            next(blocks)

    def test_matches_interval_stream_batches(self, records):
        """Same intervals, same rows as the KeyedUpdates batch iterator."""
        batches = list(IntervalStream(records, interval_seconds=INTERVAL))
        blocks = list(iter_interval_columns(records, INTERVAL))
        by_index = {b.index: b for b in blocks}
        for batch in batches:
            block = by_index[batch.index]
            np.testing.assert_array_equal(
                block.keys, batch.keys.astype(np.uint64)
            )
            np.testing.assert_array_equal(block.values, batch.values)
