"""Tests for the offline two-pass detector."""

import numpy as np
import pytest

from repro.detection import OfflineTwoPassDetector
from repro.sketch import ExactSchema, KArySchema
from repro.streams import IntervalStream, concat_records, make_records, sort_by_time
from repro.streams.model import KeyedUpdates

from tests.conftest import make_batches
from tests.detection.oracle import assert_reports_identical


def _spiked_batches(rng, spike_key=99999999, spike_interval=8, spike_value=5e6):
    batches = make_batches(rng, intervals=12)
    target = batches[spike_interval]
    batches[spike_interval] = KeyedUpdates(
        index=target.index,
        keys=np.concatenate([target.keys, [spike_key]]).astype(np.uint64),
        values=np.concatenate([target.values, [spike_value]]),
        duration=target.duration,
    )
    return batches


class TestOfflineTwoPass:
    def test_detects_planted_spike(self, rng):
        batches = _spiked_batches(rng)
        detector = OfflineTwoPassDetector(
            KArySchema(depth=5, width=8192, seed=0),
            "ewma",
            alpha=0.5,
            t_fraction=0.2,
        )
        reports = detector.detect(batches)
        spike_report = next(r for r in reports if r.index == 8)
        assert 99999999 in {a.key for a in spike_report.alarms}

    def test_spike_tops_ranking(self, rng):
        batches = _spiked_batches(rng)
        detector = OfflineTwoPassDetector(
            KArySchema(depth=5, width=8192, seed=0),
            "ewma",
            alpha=0.5,
            t_fraction=None,
            top_n=10,
        )
        reports = detector.detect(batches)
        spike_report = next(r for r in reports if r.index == 8)
        assert spike_report.top_keys[0] == 99999999

    def test_warmup_skipped(self, rng):
        batches = make_batches(rng, intervals=6)
        detector = OfflineTwoPassDetector(
            KArySchema(depth=3, width=1024, seed=0), "ewma", alpha=0.5
        )
        reports = detector.detect(batches)
        # EWMA warms up after 1 observation: 5 scored intervals.
        assert [r.index for r in reports] == [1, 2, 3, 4, 5]

    def test_exact_schema_supported(self, rng):
        batches = _spiked_batches(rng)
        detector = OfflineTwoPassDetector(
            ExactSchema(), "ewma", alpha=0.5, t_fraction=0.2
        )
        reports = detector.detect(batches)
        spike_report = next(r for r in reports if r.index == 8)
        assert 99999999 in {a.key for a in spike_report.alarms}

    def test_forecaster_instance_accepted(self, rng):
        from repro.forecast import EWMAForecaster

        batches = make_batches(rng, intervals=4)
        detector = OfflineTwoPassDetector(
            KArySchema(depth=3, width=1024, seed=0),
            EWMAForecaster(alpha=0.3),
        )
        assert len(detector.detect(batches)) == 3

    def test_params_with_instance_rejected(self):
        from repro.forecast import EWMAForecaster

        with pytest.raises(ValueError, match="model_params"):
            OfflineTwoPassDetector(
                KArySchema(depth=1, width=4), EWMAForecaster(0.5), alpha=0.2
            )

    def test_validation(self):
        schema = KArySchema(depth=1, width=4)
        with pytest.raises(ValueError):
            OfflineTwoPassDetector(schema, "ewma", t_fraction=-0.1)
        with pytest.raises(ValueError):
            OfflineTwoPassDetector(schema, "ewma", top_n=-1)

    def test_alarm_threshold_consistency(self, rng):
        batches = make_batches(rng, intervals=5)
        detector = OfflineTwoPassDetector(
            KArySchema(depth=5, width=4096, seed=0), "ewma", alpha=0.5,
            t_fraction=0.05,
        )
        for report in detector.run(batches):
            assert report.threshold == pytest.approx(0.05 * report.error_l2)
            for alarm in report.alarms:
                assert abs(alarm.estimated_error) >= report.threshold

    def test_no_thresholding_mode(self, rng):
        batches = make_batches(rng, intervals=4)
        detector = OfflineTwoPassDetector(
            KArySchema(depth=3, width=1024, seed=0), "ewma", t_fraction=None
        )
        for report in detector.run(batches):
            assert report.alarms == []
            assert report.threshold == 0.0

    def test_sketch_agrees_with_exact_on_alarms(self, rng):
        """At generous K the sketch detector should find the same alarms as
        exact per-flow detection for a high threshold."""
        batches = _spiked_batches(rng)
        sketch_det = OfflineTwoPassDetector(
            KArySchema(depth=5, width=32768, seed=0), "ewma", alpha=0.5,
            t_fraction=0.3,
        )
        exact_det = OfflineTwoPassDetector(
            ExactSchema(), "ewma", alpha=0.5, t_fraction=0.3
        )
        sk = {(r.index, a.key) for r in sketch_det.run(batches) for a in r.alarms}
        ex = {(r.index, a.key) for r in exact_det.run(batches) for a in r.alarms}
        # Symmetric difference should be tiny relative to the union.
        union = len(sk | ex) or 1
        assert len(sk ^ ex) / union < 0.2


def _records(rng, n=20000, duration=3000.0, population=800):
    keys = rng.integers(0, population, n).astype(np.uint32)
    return make_records(
        timestamps=np.sort(rng.uniform(0, duration, n)),
        dst_ips=keys,
        byte_counts=rng.pareto(1.3, n) * 500 + 40,
    )


class TestDetectMany:
    """Network-wide view: sketch each router's stream, COMBINE per
    interval, detect -- identical to detecting over the merged trace."""

    @pytest.fixture
    def schema(self):
        return KArySchema(depth=5, width=4096, seed=0)

    def _traces(self, rng, n_traces=3):
        return [_records(rng, n=6000, duration=1800.0) for _ in range(n_traces)]

    def test_detect_many_matches_merged_trace(self, rng, schema):
        traces = self._traces(rng)
        detector = OfflineTwoPassDetector(schema, "ewma", alpha=0.5, t_fraction=0.1)
        merged = sort_by_time(concat_records(traces))
        expected = detector.detect(IntervalStream(merged, interval_seconds=300.0))
        got = detector.detect_many(
            [IntervalStream(t, interval_seconds=300.0) for t in traces]
        )
        assert_reports_identical(got, expected)

    def test_misaligned_streams_rejected(self, schema):
        def batch(index):
            return KeyedUpdates(
                index=index,
                keys=np.array([1], dtype=np.uint64),
                values=np.array([1.0]),
                duration=300.0,
            )

        detector = OfflineTwoPassDetector(schema, "ewma", alpha=0.5)
        with pytest.raises(ValueError, match="interval index"):
            detector.detect_many([[batch(0)], [batch(1)]])

    def test_empty_stream_list(self, schema):
        detector = OfflineTwoPassDetector(schema, "ewma", alpha=0.5)
        assert detector.detect_many([]) == []
