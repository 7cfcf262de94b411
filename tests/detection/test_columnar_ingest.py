"""Columnar ingest equivalence.

``StreamingSession.ingest_columns`` /
``OfflineTwoPassDetector.run(KeyedUpdates...)`` are the zero-copy twins
of record-chunk ingestion: same intervals, same sketches, bit-identical
reports.
"""

import numpy as np
import pytest

from repro.detection import OfflineTwoPassDetector, StreamingSession
from repro.sketch import KArySchema
from repro.streams import (
    IntervalStream,
    KeyedUpdates,
    iter_interval_columns,
    make_records,
)

INTERVAL = 300.0
CHUNK = 1024


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=2048, seed=3)


@pytest.fixture
def records(rng):
    n = 16000
    return make_records(
        timestamps=np.sort(rng.uniform(0, 3000, n)),
        dst_ips=rng.integers(0, 600, n).astype(np.uint32),
        byte_counts=rng.pareto(1.3, n) * 500 + 40,
    )


def _assert_reports_identical(got, reference):
    assert len(got) == len(reference)
    for a, b in zip(got, reference):
        assert a.index == b.index
        assert a.threshold == b.threshold
        assert a.error_l2 == b.error_l2
        assert [(x.key, x.estimated_error) for x in a.alarms] == [
            (x.key, x.estimated_error) for x in b.alarms
        ]
        assert np.array_equal(a.top_keys, b.top_keys)
        assert np.array_equal(a.top_errors, b.top_errors)


def _run_records(session, records, chunk=CHUNK):
    reports = []
    for start in range(0, len(records), chunk):
        reports.extend(session.ingest(records[start : start + chunk]))
    reports.extend(session.flush())
    return reports


def _run_columns(session, records, chunk_records=None):
    reports = []
    for block in iter_interval_columns(records, INTERVAL,
                                       chunk_records=chunk_records):
        reports.extend(session.ingest_columns(block))
    reports.extend(session.flush())
    return reports


class TestColumnarEquivalence:
    def _session(self, schema, **knobs):
        return StreamingSession(
            schema, "ewma", alpha=0.4, interval_seconds=INTERVAL,
            t_fraction=0.05, top_n=10, **knobs,
        )

    @pytest.mark.parametrize("chunk_records", [None, 512])
    def test_serial_session(self, schema, records, chunk_records):
        reference = _run_records(self._session(schema), records)
        columnar = _run_columns(
            self._session(schema), records, chunk_records=chunk_records
        )
        _assert_reports_identical(columnar, reference)

    def test_block_arrays_reusable_after_ingest(self, schema, records):
        """The session buffers its own copy: a caller overwriting a
        block's arrays once ``ingest_columns`` returns changes nothing."""
        reference = _run_columns(self._session(schema), records, 512)
        session = self._session(schema)
        reports = []
        for block in iter_interval_columns(records, INTERVAL, chunk_records=512):
            keys, values = block.keys.copy(), block.values.copy()
            reports.extend(session.ingest_columns(
                KeyedUpdates(index=block.index, keys=keys, values=values)
            ))
            keys[:] = 7
            values[:] = 1e9
        reports.extend(session.flush())
        _assert_reports_identical(reports, reference)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected_before_state_changes(self, schema, bad):
        session = self._session(schema)
        keys = np.arange(4, dtype=np.uint64)
        session.ingest_columns(KeyedUpdates(index=1, keys=keys, values=np.ones(4)))
        values = np.ones(4)
        values[2] = bad
        with pytest.raises(ValueError, match="finite"):
            session.ingest_columns(KeyedUpdates(index=3, keys=keys, values=values))
        assert session.current_interval == 1
        assert session.intervals_sealed == 0
        assert session.records_ingested == 4

    def test_twopass_accepts_blocks(self, schema, records):
        def detector():
            return OfflineTwoPassDetector(
                schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10
            )

        reference = detector().detect(
            IntervalStream(records, interval_seconds=INTERVAL)
        )
        columnar = detector().detect(iter_interval_columns(records, INTERVAL))
        _assert_reports_identical(columnar, reference)

    def test_out_of_order_block_rejected(self, schema):
        session = self._session(schema)
        keys = np.arange(10, dtype=np.uint64)
        values = np.ones(10)
        session.ingest_columns(
            KeyedUpdates(index=4, keys=keys, values=values)
        )
        with pytest.raises(ValueError, match="nondecreasing"):
            session.ingest_columns(
                KeyedUpdates(index=3, keys=keys, values=values)
            )

    @pytest.mark.parametrize("bad", [2.7, True, "3", np.inf, np.nan])
    def test_non_integer_index_rejected_before_state_changes(self, schema, bad):
        session = self._session(schema)
        keys = np.arange(4, dtype=np.uint64)
        session.ingest_columns(KeyedUpdates(index=1, keys=keys, values=np.ones(4)))
        with pytest.raises(ValueError, match="integer"):
            session.ingest_columns(
                KeyedUpdates(index=bad, keys=keys, values=np.ones(4))
            )
        assert session.current_interval == 1
        assert session.records_ingested == 4
        assert session.watermark == INTERVAL

    def test_numpy_integer_index_accepted(self, schema):
        session = self._session(schema)
        keys = np.arange(4, dtype=np.uint64)
        session.ingest_columns(
            KeyedUpdates(index=np.int64(2), keys=keys, values=np.ones(4))
        )
        assert session.current_interval == 2
        assert type(session.current_interval) is int

    def test_shape_validation(self, schema):
        session = self._session(schema)
        with pytest.raises(ValueError, match="1-D"):
            session.ingest_columns(
                KeyedUpdates(
                    index=0,
                    keys=np.arange(4, dtype=np.uint64),
                    values=np.ones(3),
                )
            )

    def test_counts_and_watermark(self, schema):
        session = self._session(schema)
        keys = np.arange(64, dtype=np.uint64)
        session.ingest_columns(
            KeyedUpdates(index=2, keys=keys, values=np.ones(64))
        )
        assert session.records_ingested == 64
        assert session.watermark == 2 * INTERVAL
