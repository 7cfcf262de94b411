"""Tests for the multi-resolution temporal archive."""

import numpy as np
import pytest

from repro.archive import ArchiveSpan, TemporalArchive, load_archive, save_archive
from repro.detection import StreamingSession
from repro.obs import PipelineRecorder
from repro.sketch import KArySchema
from repro.sketch.serialization import dumps_checkpoint
from repro.streams import make_records

INTERVAL = 300.0


@pytest.fixture
def schema():
    return KArySchema(depth=3, width=1024, seed=11)


def _records(rng, intervals=12, per_interval=1500, population=600):
    """Integer-valued background traffic covering ``intervals`` intervals."""
    n = intervals * per_interval
    return make_records(
        timestamps=np.sort(rng.uniform(0, intervals * INTERVAL, n)),
        dst_ips=rng.integers(0, population, n),
        byte_counts=rng.integers(40, 2000, n),
    )


def _session_kwargs():
    return dict(
        interval_seconds=INTERVAL, t_fraction=0.05, top_n=8, window=1
    )


def _run_live(schema, records, archive):
    session = StreamingSession(
        schema, "ma", sink=archive.ingest, **_session_kwargs()
    )
    return session.ingest(records) + session.flush()


def _assert_report_identical(a, b):
    assert a.index == b.index
    assert a.threshold == b.threshold
    assert a.error_l2 == b.error_l2
    assert np.array_equal(a.top_keys, b.top_keys)
    assert np.array_equal(a.top_errors, b.top_errors)
    assert [(al.key, al.estimated_error) for al in a.alarms] == [
        (al.key, al.estimated_error) for al in b.alarms
    ]


class TestValidation:
    def test_entropy_seed_refused(self):
        with pytest.raises(ValueError, match="explicit seed"):
            TemporalArchive(KArySchema(depth=3, width=1024, seed=None))

    def test_parameter_validation(self, schema):
        with pytest.raises(ValueError):
            TemporalArchive(schema, interval_seconds=0)
        with pytest.raises(ValueError):
            TemporalArchive(schema, byte_budget=0)
        with pytest.raises(ValueError):
            TemporalArchive(schema, max_folds=-1)
        with pytest.raises(ValueError):
            TemporalArchive(schema, tail_intervals=0)
        # 1024 folds down to 2 buckets after 9 halvings; 10 is one too many.
        with pytest.raises(ValueError):
            TemporalArchive(schema, max_folds=10)

    def test_schema_mismatch_refused(self, schema, rng):
        archive = TemporalArchive(schema, INTERVAL)
        other = KArySchema(depth=3, width=1024, seed=99)
        sketch = other.from_items(
            rng.integers(0, 100, 50, dtype=np.uint64), np.ones(50)
        )
        with pytest.raises(ValueError, match="schema"):
            archive.ingest(sketch, np.arange(5, dtype=np.uint64), 0)

    def test_monotonic_index_enforced(self, schema, rng):
        archive = TemporalArchive(schema, INTERVAL)
        keys = rng.integers(0, 100, 50, dtype=np.uint64)
        sketch = schema.from_items(keys, np.ones(50))
        archive.ingest(sketch, np.unique(keys), 3)
        with pytest.raises(ValueError, match="predates"):
            archive.ingest(sketch, np.unique(keys), 3)


class TestBitIdentity:
    """Retrospective queries over the full-resolution tail reproduce the
    live session's reports bit for bit (MA window=1 live model)."""

    def test_replay_matches_live(self, schema, rng):
        records = _records(rng)
        archive = TemporalArchive(schema, INTERVAL)
        live = _run_live(schema, records, archive)
        replayed = archive.replay("ma", window=1, t_fraction=0.05, top_n=8)
        assert len(replayed) == len(live)
        for a, b in zip(replayed, live):
            _assert_report_identical(a, b)

    def test_diff_of_adjacent_intervals_matches_live(self, schema, rng):
        records = _records(rng)
        archive = TemporalArchive(schema, INTERVAL)
        live = {r.index: r for r in _run_live(schema, records, archive)}
        for t, report in live.items():
            result = archive.diff(
                (t, t + 1), (t - 1, t), t_fraction=0.05, top_n=8
            )
            _assert_report_identical(result.report, report)
            assert result.scale == 1.0
            assert result.range_a == (t, t + 1)


def _fill(archive, schema, rng, intervals, population=400, per_interval=800):
    """Ingest synthetic sealed intervals directly (no session)."""
    for t in range(intervals):
        keys = rng.integers(0, population, per_interval).astype(np.uint64)
        values = rng.integers(40, 2000, per_interval).astype(np.float64)
        archive.ingest(schema.from_items(keys, values), np.unique(keys), t)


class TestCompaction:
    def test_tiers_form_and_budget_holds(self, schema, rng):
        budget = 5 * schema.table_bytes
        archive = TemporalArchive(
            schema, INTERVAL, byte_budget=budget,
            max_folds=2, tail_intervals=2,
        )
        _fill(archive, schema, rng, intervals=24)
        assert archive.nbytes <= budget
        spans = archive.spans
        assert archive.coverage == (0, 24)
        # Spans tile [0, 24) contiguously, oldest first.
        assert spans[0].start == 0
        for a, b in zip(spans, spans[1:]):
            assert a.end == b.start
        assert spans[-1].end == 24
        # Compacted spans follow the tier schedule and lose their keys;
        # the protected tail stays full-resolution with keys retained.
        for span in spans:
            if span.length > 1:
                assert span.folds == min(2, span.length.bit_length() - 1)
                assert span.keys is None
        for span in spans[-2:]:
            assert span.length == 1 and span.folds == 0
            assert span.keys is not None
        stats = archive.stats
        assert stats["time_compactions"] > 0
        assert stats["keys_dropped"] > 0
        assert stats["spans"] == len(spans)

    def test_compact_once_returns_false_at_max_compaction(self, schema, rng):
        archive = TemporalArchive(
            schema, INTERVAL, max_folds=1, tail_intervals=1
        )
        _fill(archive, schema, rng, intervals=8)
        while archive.compact_once():
            pass
        assert archive.compact_once() is False
        # 7 eligible intervals collapse to the dyadic floor [0,4) [4,6)
        # [6,7), all folded to the max, plus the protected tail interval.
        assert [(s.start, s.length, s.folds) for s in archive.spans] == [
            (0, 4, 1), (4, 2, 1), (6, 1, 1), (7, 1, 0)
        ]

    def test_range_summary_folds_to_coarsest(self, schema, rng):
        archive = TemporalArchive(schema, INTERVAL, max_folds=2,
                                  tail_intervals=2)
        _fill(archive, schema, rng, intervals=12)
        while archive.compact_once():
            pass
        summary, lo, hi = archive.range_summary(0, 12)
        assert (lo, hi) == (0, 12)
        coarsest = max(span.folds for span in archive.spans)
        assert summary.schema.width == schema.width >> coarsest

    def test_keys_compacted_away_raises(self, schema, rng):
        archive = TemporalArchive(schema, INTERVAL, tail_intervals=2)
        _fill(archive, schema, rng, intervals=8)
        while archive.compact_once():
            pass
        with pytest.raises(ValueError, match="compacted away"):
            archive.diff((0, 4), (4, 6))

    def test_replay_refuses_compacted_range(self, schema, rng):
        archive = TemporalArchive(schema, INTERVAL, tail_intervals=2)
        _fill(archive, schema, rng, intervals=8)
        while archive.compact_once():
            pass
        with pytest.raises(ValueError, match="compacted"):
            archive.replay("ma", window=1, lo=0)
        # The default range silently skips compacted spans instead.
        reports = archive.replay("ma", window=1)
        assert [r.index for r in reports] == [7]


class TestPlantedChangeRecall:
    def test_recall_after_aging_into_compacted_tier(self, schema, rng):
        """A change planted in intervals that later age into a folded,
        merged tier is still recovered by a retrospective diff."""
        planted = np.arange(10_000, 10_020, dtype=np.uint64)
        archive = TemporalArchive(
            schema, INTERVAL, max_folds=2, tail_intervals=4
        )
        for t in range(16):
            keys = rng.integers(0, 600, 1500).astype(np.uint64)
            values = rng.integers(40, 2000, 1500).astype(np.float64)
            if 8 <= t < 12:  # the change lives in [8, 12)
                keys = np.concatenate([keys, planted])
                values = np.concatenate(
                    [values, np.full(len(planted), 5e6)]
                )
            archive.ingest(schema.from_items(keys, values), np.unique(keys), t)
        while archive.compact_once():
            pass
        # The planted range is now inside compacted spans.
        touched = [s for s in archive.spans if s.start < 12 and s.end > 8]
        assert all(s.length > 1 or s.folds > 0 for s in touched)

        candidates = np.concatenate(
            [planted, rng.integers(0, 600, 400).astype(np.uint64)]
        )
        result = archive.diff(
            (8, 12), (0, 8), t_fraction=0.05, keys=candidates
        )
        alarmed = {a.key for a in result.report.alarms}
        recall = len(alarmed & set(planted.tolist())) / len(planted)
        assert recall >= 0.9
        assert result.scale == pytest.approx(0.5)

    def test_drilldown_attributes_planted_change(self, schema, rng):
        victim = np.uint64(0x0A010200 + 4)  # 10.1.2.4
        archive = TemporalArchive(schema, INTERVAL)
        for t in range(6):
            keys = rng.integers(0, 2**32, 1200, dtype=np.uint64)
            values = rng.integers(40, 2000, 1200).astype(np.float64)
            if t == 4:
                keys = np.concatenate([keys, np.repeat(victim, 30)])
                values = np.concatenate([values, np.full(30, 1e6)])
            archive.ingest(schema.from_items(keys, values), np.unique(keys), t)
        result, report = archive.drilldown((4, 5), (3, 4), t_fraction=0.05)
        assert int(victim) in {a.key for a in result.report.alarms}
        leaves = {
            leaf.prefix
            for root in report.roots
            for leaf in root.leaves()
            if leaf.prefix_len == 32
        }
        assert int(victim) in leaves


class TestQueries:
    def test_estimate_and_snap(self, schema, rng):
        heavy = np.uint64(77)
        archive = TemporalArchive(schema, INTERVAL, tail_intervals=2)
        total = 0.0
        for t in range(8):
            keys = rng.integers(100, 500, 800).astype(np.uint64)
            values = rng.integers(40, 400, 800).astype(np.float64)
            keys = np.concatenate([keys, [heavy]])
            values = np.concatenate([values, [1e6]])
            total += 1e6
            archive.ingest(schema.from_items(keys, values), np.unique(keys), t)
        while archive.compact_once():
            pass
        est = archive.estimate(int(heavy), 0.0, 8 * INTERVAL)
        assert est == pytest.approx(total, rel=0.05)
        # A query landing mid-span snaps outward to span boundaries.
        lo, hi = archive.snap(0.0, INTERVAL)
        assert lo == 0 and hi >= 1

    def test_empty_and_out_of_range_queries(self, schema, rng):
        archive = TemporalArchive(schema, INTERVAL)
        with pytest.raises(ValueError):
            archive.range_summary(0, 0)
        _fill(archive, schema, rng, intervals=2)
        with pytest.raises(ValueError, match="coverage"):
            archive.range_summary(10, 12)

    @pytest.mark.parametrize(
        "lo, hi", [(0.5, 2.7), (0, 2.0), ("0", 2), (False, True), (0, None)]
    )
    def test_non_integer_ranges_rejected(self, schema, rng, lo, hi):
        archive = TemporalArchive(schema, INTERVAL)
        _fill(archive, schema, rng, intervals=4)
        with pytest.raises(ValueError, match="must be an integer"):
            archive.range_summary(lo, hi)
        with pytest.raises(ValueError, match="must be an integer"):
            archive.diff((lo, hi), (2, 4), keys=[1, 2])
        assert archive.range_summary(np.int64(0), 2)[1:] == (0, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_times_rejected(self, schema, rng, bad):
        archive = TemporalArchive(schema, INTERVAL)
        _fill(archive, schema, rng, intervals=4)
        with pytest.raises(ValueError, match="finite"):
            archive.index_of(bad)
        with pytest.raises(ValueError, match="finite"):
            archive.snap(0.0, bad)
        with pytest.raises(ValueError, match="finite"):
            archive.estimate(1, bad, INTERVAL)

    @pytest.mark.parametrize(
        "keys",
        [
            [1.7, 2.2],
            np.array([1.7, 2.2]),
            [True, False],
            np.array([True, False]),
            [[1, 2], [3, 4]],
            np.array([[1, 2], [3, 4]], dtype=np.uint64),
            [-1, 5],
            np.array([-1, 5]),
            [2**64],
            ["1", "2"],
            7,
        ],
        ids=lambda keys: f"{type(keys).__name__}:{np.asarray(keys).tolist()}",
    )
    def test_explicit_keys_checked_before_combine(
        self, schema, rng, monkeypatch, keys
    ):
        import repro.archive.temporal as temporal

        archive = TemporalArchive(schema, INTERVAL)
        _fill(archive, schema, rng, intervals=4)

        def no_combine(*args, **kwargs):
            raise AssertionError("COMBINE ran before the keys were checked")

        monkeypatch.setattr(temporal, "merge", no_combine)
        monkeypatch.setattr(temporal, "combine", no_combine)
        with pytest.raises(ValueError, match="integers in"):
            archive.diff((3, 4), (2, 3), keys=keys)
        with pytest.raises(ValueError, match="integers in"):
            archive.drilldown((3, 4), (2, 3), keys=keys)

    def test_explicit_keys_in_any_order_with_repeats(self, schema, rng):
        archive = TemporalArchive(schema, INTERVAL)
        _fill(archive, schema, rng, intervals=4)
        keys = rng.integers(0, 400, 300).astype(np.uint64)
        noisy = rng.permutation(np.concatenate([keys, keys[:120]]))
        want = archive.diff((3, 4), (2, 3), top_n=8, keys=np.unique(keys))
        assert want.report.alarm_count
        for given in (noisy, noisy.astype(np.int64), noisy.tolist()):
            got = archive.diff((3, 4), (2, 3), top_n=8, keys=given)
            _assert_report_identical(got.report, want.report)
            assert np.array_equal(got.keys, want.keys)
            assert got.keys.dtype == np.uint64
        for empty in ([], np.array([], dtype=np.float64)):
            got = archive.diff((3, 4), (2, 3), top_n=8, keys=empty)
            assert got.keys.dtype == np.uint64 and not len(got.keys)
            assert got.report.alarm_count == 0


class TestPersistence:
    def test_round_trip(self, schema, rng, tmp_path):
        path = tmp_path / "archive.kcp"
        archive = TemporalArchive(
            schema, INTERVAL, byte_budget=6 * schema.table_bytes,
            max_folds=2, tail_intervals=2,
        )
        _fill(archive, schema, rng, intervals=16)
        save_archive(archive, path)
        restored = load_archive(path)
        assert restored.schema == schema
        assert restored.interval_seconds == archive.interval_seconds
        assert restored.byte_budget == archive.byte_budget
        assert restored.coverage == archive.coverage
        assert restored.stats == archive.stats
        assert len(restored.spans) == len(archive.spans)
        for a, b in zip(restored.spans, archive.spans):
            assert (a.start, a.length, a.folds) == (b.start, b.length, b.folds)
            assert np.array_equal(
                np.asarray(a.summary.table), np.asarray(b.summary.table)
            )
            if b.keys is None:
                assert a.keys is None
            else:
                assert np.array_equal(a.keys, b.keys)
        # Queries agree bit for bit after the round trip.
        lo, hi = archive.coverage
        for t in range(hi - 2, hi):
            orig = archive.diff((t, t + 1), (t - 1, t))
            back = restored.diff((t, t + 1), (t - 1, t))
            _assert_report_identical(back.report, orig.report)

    def test_load_with_matching_schema(self, schema, rng, tmp_path):
        path = tmp_path / "archive.kcp"
        archive = TemporalArchive(schema, INTERVAL)
        _fill(archive, schema, rng, intervals=3)
        archive.save(path)
        restored = load_archive(path, schema=schema)
        assert restored.schema is schema
        with pytest.raises(ValueError):
            load_archive(path, schema=KArySchema(depth=3, width=1024, seed=5))

    def test_foreign_checkpoint_refused(self, tmp_path):
        path = tmp_path / "other.kcp"
        path.write_bytes(dumps_checkpoint({"format": "other"}, {}))
        with pytest.raises(ValueError, match="temporal-archive"):
            load_archive(path)


class TestObservability:
    def test_metrics_track_ground_truth(self, schema, rng):
        recorder = PipelineRecorder()
        archive = TemporalArchive(
            schema, INTERVAL, byte_budget=5 * schema.table_bytes,
            max_folds=2, tail_intervals=2, recorder=recorder,
        )
        _fill(archive, schema, rng, intervals=16)
        reg = recorder.registry
        assert (
            reg.get("repro_archive_intervals_ingested_total").value() == 16
        )
        assert (
            reg.get("repro_archive_compactions_total").value(axis="time")
            == archive.stats["time_compactions"]
        )
        assert (
            reg.get("repro_archive_keys_dropped_total").value()
            == archive.stats["keys_dropped"]
        )
        assert reg.get("repro_archive_bytes").value() == archive.nbytes
        assert reg.get("repro_archive_spans").value() == len(archive.spans)
        assert reg.get("repro_archive_over_budget").value() == 0

    def test_recorder_never_changes_results(self, schema, rng):
        records = _records(rng, intervals=6)
        plain = TemporalArchive(schema, INTERVAL)
        _run_live(schema, records, plain)
        observed = TemporalArchive(
            schema, INTERVAL, recorder=PipelineRecorder()
        )
        _run_live(schema, records, observed)
        for a, b in zip(
            observed.replay("ma", window=1), plain.replay("ma", window=1)
        ):
            _assert_report_identical(a, b)


class TestArchiveSpan:
    def test_nbytes_counts_keys(self, schema):
        sketch = schema.empty()
        keys = np.arange(10, dtype=np.uint64)
        with_keys = ArchiveSpan(
            start=0, length=1, folds=0, summary=sketch, keys=keys
        )
        without = ArchiveSpan(
            start=0, length=1, folds=0, summary=sketch, keys=None
        )
        assert with_keys.nbytes == without.nbytes + keys.nbytes
        assert with_keys.end == 1
