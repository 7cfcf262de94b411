"""Tests for the streaming ingestion session."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.detection.session as session_module
from repro.detection import OfflineTwoPassDetector, StreamingSession
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams import (
    IntervalStream,
    KeyedUpdates,
    iter_interval_chunks,
    iter_interval_columns,
    make_records,
)
from repro.streams.keys import ValueScheme
from tests.detection.oracle import assert_reports_identical, oracle_reports


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=4096, seed=0)


def _records(rng, n=20000, duration=3000.0, population=800):
    keys = rng.integers(0, population, n).astype(np.uint32)
    return make_records(
        timestamps=np.sort(rng.uniform(0, duration, n)),
        dst_ips=keys,
        byte_counts=rng.pareto(1.3, n) * 500 + 40,
    )


class TestStreamingSession:
    def test_validation(self, schema):
        with pytest.raises(ValueError):
            StreamingSession(schema, "ewma", interval_seconds=0)
        with pytest.raises(ValueError):
            StreamingSession(schema, "ewma", t_fraction=-1)
        with pytest.raises(ValueError):
            StreamingSession(schema, "ewma", top_n=-1)
        with pytest.raises(ValueError):
            StreamingSession(schema, "ewma", lateness_tolerance=-1)

    def test_matches_batch_detector(self, rng, schema):
        """Chunked ingestion must reproduce the batch pipeline exactly."""
        records = _records(rng)
        session = StreamingSession(
            schema, "ewma", alpha=0.5, interval_seconds=300.0, t_fraction=0.1
        )
        streamed = []
        for start in range(0, len(records), 1777):  # awkward chunk size
            streamed.extend(session.ingest(records[start : start + 1777]))
        streamed.extend(session.flush())

        batch_detector = OfflineTwoPassDetector(
            schema, "ewma", alpha=0.5, t_fraction=0.1
        )
        batch = batch_detector.detect(
            IntervalStream(records, interval_seconds=300.0)
        )
        assert len(streamed) == len(batch)
        for s_report, b_report in zip(streamed, batch):
            assert s_report.index == b_report.index
            assert s_report.error_l2 == pytest.approx(b_report.error_l2)
            assert {a.key for a in s_report.alarms} == {
                a.key for a in b_report.alarms
            }

    def test_single_chunk(self, rng, schema):
        records = _records(rng, duration=1500.0)
        session = StreamingSession(schema, "ewma", alpha=0.5)
        reports = session.ingest(records) + session.flush()
        assert len(reports) == 4  # 5 intervals - 1 warm-up
        assert session.intervals_sealed == 5

    def test_unsorted_chunk_accepted(self, schema, rng):
        records = _records(rng, n=500, duration=900.0)
        shuffled = records[rng.permutation(len(records))]
        session = StreamingSession(schema, "ewma", alpha=0.5)
        session.ingest(shuffled)
        reports = session.flush()
        assert session.intervals_sealed == 3
        assert reports  # last interval scored

    def test_gap_intervals_sealed_empty(self, schema):
        early = make_records([10.0], [1], [100])
        late = make_records([950.0], [2], [200])
        session = StreamingSession(schema, "ewma", alpha=0.5)
        session.ingest(early)
        reports = session.ingest(late)
        # Sealing 0 (warm-up), 1 and 2 (both empty) before opening 3.
        assert session.intervals_sealed == 3
        assert [r.index for r in reports] == [1, 2]

    def test_late_record_rejected(self, schema):
        session = StreamingSession(schema, "ewma", alpha=0.5)
        session.ingest(make_records([700.0], [1], [100]))
        with pytest.raises(ValueError, match="predates"):
            session.ingest(make_records([100.0], [2], [100]))

    def test_lateness_tolerance_clamps(self, schema):
        session = StreamingSession(
            schema, "ewma", alpha=0.5, lateness_tolerance=200.0
        )
        session.ingest(make_records([700.0], [1], [100]))
        # 550s is within 200s of the open interval's start (600s): accepted
        # and folded into the open interval.
        session.ingest(make_records([550.0], [2], [100]))
        assert session.records_ingested == 2
        assert session.current_interval == 2

    def test_detects_planted_spike(self, rng, schema):
        records = _records(rng, duration=3000.0)
        spike = make_records([1950.0] * 30, [999999] * 30, [100000.0] * 30)
        from repro.streams import concat_records

        merged = concat_records([records, spike])
        session = StreamingSession(
            schema, "ewma", alpha=0.5, t_fraction=0.3
        )
        reports = session.ingest(merged) + session.flush()
        spike_report = next(r for r in reports if r.index == 6)
        assert 999999 in {a.key for a in spike_report.alarms}

    def test_top_n_reporting(self, rng, schema):
        records = _records(rng, duration=1200.0)
        session = StreamingSession(
            schema, "ewma", alpha=0.5, top_n=10, t_fraction=0.05
        )
        reports = session.ingest(records) + session.flush()
        assert all(len(r.top_keys) == 10 for r in reports)

    def test_flush_then_continue(self, rng, schema):
        session = StreamingSession(schema, "ewma", alpha=0.5)
        session.ingest(make_records([100.0], [1], [50]))
        session.flush()
        # Next record must land in a later interval than the flushed one.
        session.ingest(make_records([400.0], [2], [60]))
        assert session.current_interval == 1

    def test_empty_chunk_noop(self, schema):
        session = StreamingSession(schema, "ewma", alpha=0.5)
        assert session.ingest(make_records([], [], [])) == []
        assert session.records_ingested == 0

    def test_lateness_exact_boundary(self, schema):
        """A record exactly at (interval_start - tolerance) is accepted."""
        session = StreamingSession(
            schema, "ewma", alpha=0.5, lateness_tolerance=200.0
        )
        session.ingest(make_records([700.0], [1], [100]))  # opens interval 2
        session.ingest(make_records([400.0], [2], [100]))  # floor: 600 - 200
        assert session.records_ingested == 2
        with pytest.raises(ValueError, match="predates"):
            session.ingest(make_records([399.0], [3], [100]))

    def test_flush_at_boundary_keeps_forecast_continuity(self, rng, schema):
        """Flushing between interval-aligned chunks changes nothing."""
        records = _records(rng, n=6000, duration=1800.0)
        split = np.searchsorted(records["timestamp"], 900.0)
        kwargs = dict(alpha=0.5, t_fraction=0.1)

        continuous = StreamingSession(schema, "ewma", **kwargs)
        expected = continuous.ingest(records) + continuous.flush()

        interrupted = StreamingSession(schema, "ewma", **kwargs)
        got = interrupted.ingest(records[:split])
        got += interrupted.flush()  # seals interval 2 early...
        got += interrupted.ingest(records[split:])  # ...record 900.x continues at 3
        got += interrupted.flush()
        assert [r.index for r in got] == [r.index for r in expected]
        # Intervals untouched by the early flush score identically.
        for g, e in zip(got, expected):
            if g.index != 2:
                assert g.error_l2 == e.error_l2

    def test_gap_intervals_keep_forecast_evenly_spaced(self, rng, schema):
        """An empty middle interval must appear in the series, not vanish."""
        records = _records(rng, n=3000, duration=1500.0)
        mask = (records["timestamp"] < 600.0) | (records["timestamp"] >= 900.0)
        gappy = records[mask]  # interval 2 is empty
        session = StreamingSession(schema, "ewma", alpha=0.5, t_fraction=0.1)
        reports = session.ingest(gappy) + session.flush()
        assert [r.index for r in reports] == [1, 2, 3, 4]
        gap = next(r for r in reports if r.index == 2)
        # The gap's observation is zero, so its error is the forecast itself.
        assert gap.error_l2 > 0

    def test_sorted_and_shuffled_chunks_report_identically(self, rng, schema):
        records = _records(rng, n=4000, duration=1200.0)
        kwargs = dict(alpha=0.5, t_fraction=0.1, top_n=5)

        sorted_session = StreamingSession(schema, "ewma", **kwargs)
        expected = sorted_session.ingest(records) + sorted_session.flush()

        shuffled_session = StreamingSession(schema, "ewma", **kwargs)
        shuffled = records[rng.permutation(len(records))]
        got = shuffled_session.ingest(shuffled) + shuffled_session.flush()

        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.index == e.index
            assert g.error_l2 == e.error_l2
            assert [(a.key, a.estimated_error) for a in g.alarms] == [
                (a.key, a.estimated_error) for a in e.alarms
            ]
            assert np.array_equal(g.top_keys, e.top_keys)


class TestNonFiniteTimestamps:
    """A NaN or infinite timestamp rejects the chunk before any state
    changes -- never a garbage interval index, never a silent clamp."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_chunk(self, schema, bad):
        session = StreamingSession(schema, "ewma", alpha=0.5)
        records = make_records(
            timestamps=np.array([10.0, bad, 20.0]),
            dst_ips=np.array([1, 2, 3]),
            byte_counts=np.array([100, 100, 100]),
        )
        with pytest.raises(ValueError, match="finite"):
            session.ingest(records)
        assert session.current_interval is None
        assert session.records_ingested == 0
        assert session.watermark == float("-inf")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_later_chunk(self, rng, schema, bad):
        session = StreamingSession(schema, "ewma", alpha=0.5)
        records = _records(rng, n=2000, duration=1200.0)
        session.ingest(records[:1000])
        before = (
            session.current_interval, session.records_ingested,
            session.intervals_sealed, session.watermark,
        )
        chunk = records[1000:1100].copy()
        chunk["timestamp"][50] = bad
        with pytest.raises(ValueError, match="finite"):
            session.ingest(chunk)
        assert (
            session.current_interval, session.records_ingested,
            session.intervals_sealed, session.watermark,
        ) == before
        # The session is still usable: the clean records go through.
        session.ingest(records[1000:])
        assert session.records_ingested == len(records)


# -- the open interval's buffer -----------------------------------------------

BUF_INTERVAL = 60.0
BUF_EDGES = [
    edge
    for k in (1, 2, 3)
    for edge in (k * BUF_INTERVAL, np.nextafter(k * BUF_INTERVAL, -np.inf))
]


def _edge_records(rng, per_interval=250, n_intervals=4):
    """Sorted records in every interval, plus records on each edge and on
    the float just below it; a spike in the last interval raises alarms."""
    n = per_interval * n_intervals
    timestamps = np.sort(
        np.concatenate([
            rng.uniform(0, n_intervals * BUF_INTERVAL, n), BUF_EDGES,
        ])
    )
    keys = rng.integers(0, 300, len(timestamps)).astype(np.uint32)
    byte_counts = rng.integers(40, 1500, len(timestamps))
    spike = timestamps >= (n_intervals - 1) * BUF_INTERVAL
    byte_counts[spike & (keys < 3)] *= 50
    return make_records(
        timestamps=timestamps, dst_ips=keys, byte_counts=byte_counts
    )


def _edge_cut_feed(records):
    """Chunks ending exactly on each edge and on the float just below it."""
    cuts = np.flatnonzero(np.isin(records["timestamp"], BUF_EDGES)) + 1
    return np.split(records, cuts)


def _feeds(records):
    chunked = {
        f"chunk{c}": [records[i : i + c] for i in range(0, len(records), c)]
        for c in (1, 7, 64)
    }
    return {
        **chunked,
        "whole_interval": list(iter_interval_chunks(records, BUF_INTERVAL)),
        "edge_cuts": _edge_cut_feed(records),
        "columns64": list(
            iter_interval_columns(records, BUF_INTERVAL, chunk_records=64)
        ),
        "columns": list(iter_interval_columns(records, BUF_INTERVAL)),
    }


def _bits(table):
    """A table's exact bit pattern (the candidate-key plane is uint64)."""
    return np.ascontiguousarray(table).view(np.uint64)


def _sealed_run(session_kwargs, schema, feed):
    """Replay ``feed``; returns the reports and every sealed interval."""
    sealed = []

    def sink(observed, keys, index):
        sealed.append((index, np.array(observed.table), keys.copy()))

    session = StreamingSession(
        schema, "ewma", sink=sink, **session_kwargs,
    )
    columnar = not isinstance(feed[0], np.ndarray)
    ingest = session.ingest_columns if columnar else session.ingest
    reports = []
    for item in feed:
        reports.extend(ingest(item))
    reports.extend(session.flush())
    return reports, sealed


BUF_KWARGS = dict(
    interval_seconds=BUF_INTERVAL, t_fraction=0.05, top_n=10, alpha=0.5,
)


class TestIntervalBuffer:
    """One UPDATE per interval: the sealed store is the whole-interval
    sketch, however the interval arrived."""

    @pytest.mark.parametrize("invertible", [False, True], ids=["kary", "invertible"])
    @pytest.mark.parametrize(
        "feed_name",
        ["chunk1", "chunk7", "chunk64", "whole_interval", "edge_cuts",
         "columns64", "columns"],
    )
    def test_chunking_invariance(self, rng, invertible, feed_name):
        records = _edge_records(rng)
        cls = InvertibleKArySchema if invertible else KArySchema
        schema = cls(depth=5, width=1024, seed=11)
        key_source = "invertible" if invertible else "twopass"
        reports, sealed = _sealed_run(
            dict(BUF_KWARGS, key_source=key_source), schema,
            _feeds(records)[feed_name],
        )

        blocks = list(iter_interval_columns(records, BUF_INTERVAL))
        assert [index for index, _, _ in sealed] == [b.index for b in blocks]
        for (index, table, keys), block in zip(sealed, blocks):
            whole = schema.from_items(block.keys, block.values)
            assert np.array_equal(_bits(table), _bits(whole.table))
            if not invertible:
                assert np.array_equal(keys, np.unique(block.keys))
        assert any(r.alarm_count for r in reports)
        assert_reports_identical(
            reports,
            oracle_reports(
                schema, "ewma", blocks, t_fraction=0.05, top_n=10,
                key_source=key_source, alpha=0.5,
            ),
        )

    def test_cap_flushes_bound_the_buffer(self, rng, monkeypatch):
        cap, chunk = 50, 7
        monkeypatch.setattr(session_module, "_BUFFER_CAP", cap)
        flushed = []
        flush = session_module._OpenInterval.flush

        def counting_flush(self):
            flushed.append(self.buffered)
            flush(self)

        monkeypatch.setattr(session_module._OpenInterval, "flush", counting_flush)
        records = _edge_records(rng)
        schema = KArySchema(depth=5, width=1024, seed=11)
        reports, sealed = _sealed_run(
            BUF_KWARGS, schema, _feeds(records)[f"chunk{chunk}"]
        )

        blocks = list(iter_interval_columns(records, BUF_INTERVAL))
        # Several flushes per interval, none holding more than one chunk
        # past the cap.
        assert sum(n > 0 for n in flushed) > 3 * len(blocks)
        assert max(flushed) <= cap + chunk
        for (index, table, keys), block in zip(sealed, blocks):
            whole = schema.from_items(block.keys, block.values)
            assert np.array_equal(table, whole.table)
            assert np.array_equal(keys, np.unique(block.keys))
        assert_reports_identical(
            reports,
            oracle_reports(
                schema, "ewma", blocks, t_fraction=0.05, top_n=10, alpha=0.5,
            ),
        )

    def test_key_set_bounded_by_distinct_keys(self, rng, monkeypatch):
        """Each flush merges its keys into the interval's one sorted key
        array, so the key set grows with distinct keys, not records."""
        cap, chunk, distinct = 40, 7, 12
        monkeypatch.setattr(session_module, "_BUFFER_CAP", cap)
        flushes = []
        flush = session_module._OpenInterval.flush

        def checked_flush(self):
            flushed = self.pending()[0]
            before = self.unique_keys
            flush(self)
            if len(flushed):
                flushes.append(len(flushed))
                assert isinstance(self.unique_keys, np.ndarray)
                assert np.array_equal(
                    self.unique_keys,
                    np.unique(np.concatenate([before, flushed])),
                )
                assert len(self.unique_keys) <= distinct

        monkeypatch.setattr(session_module._OpenInterval, "flush", checked_flush)
        n = 4 * 2000
        records = make_records(
            timestamps=np.sort(rng.uniform(0, 4 * BUF_INTERVAL, n)),
            dst_ips=rng.integers(0, distinct, n).astype(np.uint32),
            byte_counts=rng.integers(40, 1500, n),
        )
        schema = KArySchema(depth=5, width=1024, seed=11)
        reports, sealed = _sealed_run(
            BUF_KWARGS, schema, [records[i : i + chunk] for i in range(0, n, chunk)]
        )

        blocks = list(iter_interval_columns(records, BUF_INTERVAL))
        assert len(flushes) > 10 * len(blocks)
        for (index, table, keys), block in zip(sealed, blocks):
            assert np.array_equal(keys, np.unique(block.keys))
        assert_reports_identical(
            reports,
            oracle_reports(
                schema, "ewma", blocks, t_fraction=0.05, top_n=10, alpha=0.5,
            ),
        )

    @pytest.mark.parametrize(
        "merged, new",
        [
            ([5, 9], []),
            ([5, 9], [1, 2]),
            ([5, 9], [10, 2**64 - 1]),
            ([5, 9], [0, 5, 7, 9, 2**64 - 1]),
            ([5, 9], [5, 9]),
            ([0, 2**64 - 1], [1, 2**63]),
        ],
    )
    def test_merge_distinct_is_sorted_union(self, merged, new):
        merged = np.array(merged, dtype=np.uint64)
        new = np.array(new, dtype=np.uint64)
        out = session_module._merge_distinct(merged, new)
        assert out.dtype == np.uint64
        assert np.array_equal(out, np.unique(np.concatenate([merged, new])))

    def test_unhashable_keys_fail_the_flush_and_stay_buffered(self):
        """Keys are hashed at the flush, so a key the schema rejects (64-bit
        pairs under 32-bit tabulation, from a scheme that under-declares
        its width) fails the seal, and the failed flush leaves the buffer
        and sketch as they were."""
        from repro.streams.keys import SrcDstPairKey

        class UnderDeclaredPairKey(SrcDstPairKey):
            bits = 32

        schema = KArySchema(depth=3, width=256, seed=11)
        session = StreamingSession(
            schema, "ewma", key_scheme=UnderDeclaredPairKey(), **BUF_KWARGS,
        )
        records = make_records(
            timestamps=np.arange(10.0), dst_ips=np.arange(10),
            byte_counts=np.full(10, 100), src_ips=np.full(10, 7),
        )
        session.ingest(records)
        interval = session._interval
        with pytest.raises(ValueError, match="PolynomialHash"):
            session.flush()
        assert interval.buffered == 10
        assert not interval.sketch.table.any()


class TestKeyWidth:
    """A key the schema's hash family cannot take is refused on the call
    that supplies it, so it never wedges a later flush."""

    def test_wide_key_scheme_refused_at_construction(self):
        from repro.distributed.agent import LocalSketcher

        schema = KArySchema(depth=3, width=256, seed=11)
        with pytest.raises(ValueError, match="at most 32 bits"):
            StreamingSession(schema, "ewma", key_scheme="src_dst_pair")
        with pytest.raises(ValueError, match="at most 32 bits"):
            LocalSketcher(schema, key_scheme="src_dst_pair")

    def test_wide_key_scheme_accepted_on_polynomial_schema(self):
        schema = KArySchema(depth=3, width=256, seed=11, family="polynomial")
        session = StreamingSession(
            schema, "ewma", key_scheme="src_dst_pair", **BUF_KWARGS,
        )
        n = 200
        records = make_records(
            timestamps=np.arange(n, dtype=np.float64), dst_ips=np.arange(n),
            byte_counts=np.full(n, 100), src_ips=np.full(n, 7),
        )
        session.ingest(records)
        session.flush()
        assert session.intervals_sealed == 4

    def test_wide_block_refused_on_its_own_call(self, rng):
        schema = KArySchema(depth=3, width=256, seed=11)
        blocks = [
            KeyedUpdates(
                index=i,
                keys=rng.integers(0, 500, 300).astype(np.uint64),
                values=rng.pareto(1.3, 300) * 100 + 40,
            )
            for i in range(5)
        ]
        clean = StreamingSession(schema, "ewma", **BUF_KWARGS)
        reference = [r for b in blocks for r in clean.ingest_columns(b)]
        reference += clean.flush()

        session = StreamingSession(schema, "ewma", **BUF_KWARGS)
        reports = session.ingest_columns(blocks[0])
        wide = KeyedUpdates(
            index=0, keys=np.array([1, 2**40], dtype=np.uint64),
            values=np.ones(2),
        )
        with pytest.raises(ValueError, match="32 bits"):
            session.ingest_columns(wide)
        assert session.current_interval == 0
        assert session.records_ingested == 300
        assert session.watermark == 0.0
        assert session._interval.buffered == 300
        for block in blocks[1:]:
            reports += session.ingest_columns(block)
        reports += session.flush()
        assert len(reference) == 4
        assert_reports_identical(reports, reference)


# -- one entrance, vetted whole -----------------------------------------------

VET_INTERVAL = 60.0
BAD_KEY = 99


def _bytes_or_nan(records):
    """A custom value scheme that cannot value one key."""
    values = records["bytes"].astype(np.float64)
    values[records["dst_ip"] == BAD_KEY] = np.nan
    return values


def _vet_session():
    return StreamingSession(
        KArySchema(depth=3, width=256, seed=11), "ewma", alpha=0.5,
        interval_seconds=VET_INTERVAL, t_fraction=0.05, top_n=5,
        value_scheme=ValueScheme("bytes_or_nan", _bytes_or_nan),
    )


def _chunk(timestamps, keys):
    return make_records(
        timestamps=np.array(timestamps, dtype=np.float64),
        dst_ips=np.array(keys), byte_counts=100 + 37 * np.array(keys),
    )


#: Records at t = 1, 2, 61, 62: interval 0 sealed, interval 1 open.
VET_PROLOGUE = _chunk([1.0, 2.0, 61.0, 62.0], [1, 2, 3, 4])
#: After any rejected call: seals intervals 1 and 2, then 3 and 4.
VET_GOOD = [_chunk([121.0, 122.0, 181.0], [5, 6, 7]), _chunk([250.0], [8])]

REJECTED_CALLS = {
    "nan_timestamp": lambda s: s.ingest(_chunk([121.0, np.nan, 181.0], [5, 6, 7])),
    "inf_timestamp": lambda s: s.ingest(_chunk([121.0, 181.0, np.inf], [5, 6, 7])),
    "late_record": lambda s: s.ingest(_chunk([121.0, 10.0, 181.0], [5, 6, 7])),
    "nan_value_in_last_interval": lambda s: s.ingest(
        _chunk([121.0, 122.0, 181.0], [5, 6, BAD_KEY])
    ),
    "non_finite_block_value": lambda s: s.ingest_columns(
        KeyedUpdates(
            index=3, keys=np.array([5, 6], dtype=np.uint64),
            values=np.array([1.0, np.inf]),
        )
    ),
    "predating_block": lambda s: s.ingest_columns(
        KeyedUpdates(
            index=0, keys=np.array([5, 6], dtype=np.uint64),
            values=np.ones(2),
        )
    ),
}


class TestRejectedCallChangesNothing:
    """Every entrance vets its whole input before sealing or buffering, so
    a rejected call leaves every cursor, the buffer and the sketch as they
    were, and the stream carries on as if the call never happened."""

    @staticmethod
    def _state(session):
        interval = session._interval
        return (
            session.current_interval, session.intervals_sealed,
            session.records_ingested, session.watermark, interval.buffered,
            interval.sketch.table.copy(),
        )

    @pytest.mark.parametrize("call", REJECTED_CALLS)
    def test_rejected_call(self, call):
        reference = _vet_session()
        expected = reference.ingest(VET_PROLOGUE)
        for chunk in VET_GOOD:
            expected += reference.ingest(chunk)
        expected += reference.flush()

        session = _vet_session()
        reports = session.ingest(VET_PROLOGUE)
        before = self._state(session)
        assert before[:5] == (1, 1, 4, 62.0, 2)
        with pytest.raises(ValueError):
            REJECTED_CALLS[call](session)
        after = self._state(session)
        assert after[:5] == before[:5]
        assert np.array_equal(after[5], before[5])
        for chunk in VET_GOOD:
            reports += session.ingest(chunk)
        reports += session.flush()
        assert [r.index for r in reports] == [1, 2, 3, 4]
        assert_reports_identical(reports, expected)


# -- the same reports however the records arrive ------------------------------

ARRIVAL_INTERVAL = 60.0


@st.composite
def _arrivals(draw):
    """An integral-valued, time-ordered trace that starts in interval 0, 1
    or 7 and may skip intervals, cut into arbitrary chunks shuffled
    inside."""
    first = draw(st.sampled_from([0, 1, 7]))
    counts = draw(st.lists(st.integers(0, 12), min_size=2, max_size=6))
    counts[0] = max(counts[0], 1)
    timestamps = [
        index * ARRIVAL_INTERVAL + offset
        for index, count in enumerate(counts, start=first)
        for offset in sorted(
            draw(st.lists(st.integers(0, 59), min_size=count, max_size=count))
        )
    ]
    n = len(timestamps)
    records = make_records(
        timestamps=np.array(timestamps, dtype=np.float64),
        dst_ips=np.array(draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))),
        byte_counts=np.array(
            draw(st.lists(st.integers(1, 1500), min_size=n, max_size=n))
        ),
    )
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n)))
    shuffle = draw(st.randoms(use_true_random=False)).shuffle
    chunks = []
    for chunk in np.split(records, [c for c in cuts if c < n]):
        order = list(range(len(chunk)))
        shuffle(order)
        chunks.append(chunk[order])
    return records, chunks


class TestArrivalInvariance:
    """Record chunks of any size and inner order, columnar blocks, the
    two-pass detector and the whole-interval reference give identical
    reports, wherever the trace starts."""

    @pytest.mark.parametrize("invertible", [False, True], ids=["kary", "invertible"])
    @given(arrivals=_arrivals())
    @settings(max_examples=40, deadline=None)
    def test_chunks_columns_and_oracle_agree(self, invertible, arrivals):
        records, chunks = arrivals
        schema_cls = InvertibleKArySchema if invertible else KArySchema
        schema = schema_cls(depth=3, width=64, seed=5)
        key_source = "invertible" if invertible else "twopass"

        def session():
            return StreamingSession(
                schema, "ewma", alpha=0.5, interval_seconds=ARRIVAL_INTERVAL,
                t_fraction=0.05, top_n=4, key_source=key_source,
            )

        chunked = session()
        by_chunks = [r for chunk in chunks for r in chunked.ingest(chunk)]
        by_chunks += chunked.flush()
        columnar = session()
        by_blocks = [
            r
            for block in iter_interval_columns(records, ARRIVAL_INTERVAL)
            for r in columnar.ingest_columns(block)
        ]
        by_blocks += columnar.flush()
        detector = OfflineTwoPassDetector(
            schema, "ewma", alpha=0.5, t_fraction=0.05, top_n=4,
            key_source=key_source,
        )
        by_stream = list(detector.run(IntervalStream(records, ARRIVAL_INTERVAL)))
        by_columns = list(
            detector.run(iter_interval_columns(records, ARRIVAL_INTERVAL))
        )
        reference = oracle_reports(
            schema, "ewma", IntervalStream(records, ARRIVAL_INTERVAL),
            t_fraction=0.05, top_n=4, key_source=key_source, alpha=0.5,
        )
        first, last = records["timestamp"][[0, -1]] // ARRIVAL_INTERVAL
        assert [r.index for r in reference] == list(
            range(int(first) + 1, int(last) + 1)
        )
        for got in (by_chunks, by_blocks, by_stream, by_columns):
            assert_reports_identical(got, reference)
