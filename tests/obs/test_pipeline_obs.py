"""Observability is an observer: reports are bit-identical with it on.

The NullRecorder default must add nothing and change nothing; attaching
a PipelineRecorder must change *only* what is recorded, never what is
computed.  These tests pin both directions across every forecast model
and every detector, plus the metric/trace content itself.
"""

import numpy as np
import pytest

from repro.detection import (
    OfflineTwoPassDetector,
    OnlineDetector,
    StreamingSession,
    restore_session,
    save_checkpoint,
)
from repro.obs import PipelineRecorder
from repro.sketch import KArySchema
from repro.streams import make_records

from tests.conftest import make_batches
from tests.detection.oracle import assert_reports_identical
from tests.detection.test_amortized import MODEL_IDS, MODELS

INTERVAL = 300.0


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=2048, seed=3)


@pytest.fixture
def records(rng):
    n = 12000
    return make_records(
        timestamps=np.sort(rng.uniform(0, 2400, n)),
        dst_ips=rng.integers(0, 500, n).astype(np.uint32),
        byte_counts=rng.pareto(1.3, n) * 500 + 40,
    )


def _run_session(session, records, chunk=1024):
    reports = []
    for start in range(0, len(records), chunk):
        reports.extend(session.ingest(records[start : start + chunk]))
    reports.extend(session.flush())
    return reports


@pytest.mark.parametrize("model,params", MODELS, ids=MODEL_IDS)
class TestBitIdentityAcrossModels:
    def test_serial_session(self, schema, records, model, params):
        base = StreamingSession(
            schema, model, interval_seconds=INTERVAL, top_n=5, **params
        )
        observed = StreamingSession(
            schema, model, interval_seconds=INTERVAL, top_n=5,
            recorder=PipelineRecorder(), **params
        )
        assert_reports_identical(
            _run_session(observed, records), _run_session(base, records)
        )

    def test_two_pass_detector(self, schema, rng, model, params):
        batches = make_batches(rng, intervals=8)
        base = OfflineTwoPassDetector(schema, model, top_n=5, **params)
        observed = OfflineTwoPassDetector(
            schema, model, top_n=5, recorder=PipelineRecorder(), **params
        )
        assert_reports_identical(
            observed.detect(batches), base.detect(batches)
        )


class TestOnlineDetectorObs:
    def test_bit_identity(self, schema, rng):
        batches = make_batches(rng, intervals=8)
        base = OnlineDetector(
            schema, "ewma", alpha=0.5, t_fraction=0.05,
            sample_rate=0.5, seed=3,
        )
        observed = OnlineDetector(
            schema, "ewma", alpha=0.5, t_fraction=0.05,
            sample_rate=0.5, seed=3, recorder=PipelineRecorder(),
        )
        assert_reports_identical(
            list(observed.run(batches)), list(base.run(batches))
        )


class TestRecordedContent:
    def test_session_metrics_match_ground_truth(self, schema, records):
        recorder = PipelineRecorder()
        session = StreamingSession(
            schema, "ewma", alpha=0.5, interval_seconds=INTERVAL,
            recorder=recorder,
        )
        reports = _run_session(session, records)
        reg = recorder.registry
        assert reg.get("repro_records_ingested_total").value() == len(records)
        assert (
            reg.get("repro_intervals_sealed_total").value()
            == session.intervals_sealed
        )
        assert reg.get("repro_alarms_total").value() == sum(
            r.alarm_count for r in reports
        )
        stats = session.stats["detection"]
        assert (
            reg.get("repro_detect_candidates_total").value()
            == stats["candidates"]
        )
        assert (
            reg.get("repro_detect_median_evaluated_total").value()
            == stats["median_evaluated"]
        )

    def test_stage_timers_cover_the_pipeline(self, schema, records):
        recorder = PipelineRecorder()
        session = StreamingSession(
            schema, "ewma", alpha=0.5, interval_seconds=INTERVAL,
            recorder=recorder,
        )
        _run_session(session, records)
        hist = recorder.registry.get("repro_stage_seconds")
        sealed = session.intervals_sealed
        assert hist.snapshot(stage="seal")["count"] == sealed
        assert hist.snapshot(stage="forecast_step")["count"] == sealed
        assert hist.snapshot(stage="ingest")["count"] > 0

    def test_interval_sealed_events(self, schema, records):
        recorder = PipelineRecorder()
        session = StreamingSession(
            schema, "ewma", alpha=0.5, interval_seconds=INTERVAL,
            recorder=recorder,
        )
        reports = _run_session(session, records)
        sealed = recorder.events(kind="interval_sealed")
        assert len(sealed) == session.intervals_sealed
        reported = {r.index: r for r in reports}
        for event in sealed:
            report = reported.get(event["interval"])
            if report is not None:  # warm-up intervals have no report
                assert event["alarms"] == report.alarm_count

    def test_alarm_events_match_alarm_counter(self, schema, records):
        recorder = PipelineRecorder()
        session = StreamingSession(
            schema, "ewma", alpha=0.5, interval_seconds=INTERVAL,
            t_fraction=0.01, recorder=recorder,
        )
        reports = _run_session(session, records)
        alarmed_intervals = [r for r in reports if r.alarm_count]
        assert len(recorder.events(kind="alarm_raised")) == len(
            alarmed_intervals
        )


    def test_two_pass_counts_warmup_seals(self, schema, rng):
        """The two-pass detector counts every sealed interval, warm-up
        included -- the session's rule, shared through the sealer."""
        recorder = PipelineRecorder()
        batches = make_batches(rng, intervals=6)
        reports = OfflineTwoPassDetector(
            schema, "ewma", alpha=0.5, recorder=recorder
        ).detect(batches)
        assert len(reports) == len(batches) - 1
        reg = recorder.registry
        assert reg.get("repro_intervals_sealed_total").value() == len(batches)
        assert len(recorder.events(kind="interval_sealed")) == len(batches)


class TestCheckpointObs:
    def test_checkpoint_event_and_counter(self, schema, records, tmp_path):
        recorder = PipelineRecorder()
        session = StreamingSession(
            schema, "ewma", alpha=0.5, interval_seconds=INTERVAL,
            recorder=recorder,
        )
        session.ingest(records[: len(records) // 2])
        path = tmp_path / "session.kcp"
        save_checkpoint(session, path)
        assert (
            recorder.registry.get("repro_checkpoints_written_total").value()
            == 1
        )
        (event,) = recorder.events(kind="checkpoint_written")
        assert event["bytes"] == path.stat().st_size
        assert event["watermark"] == session.watermark
        assert event["intervals_sealed"] == session.intervals_sealed

    def test_restore_starts_clean_and_stays_coherent(
        self, schema, records, tmp_path
    ):
        """Recorders are execution state: a restored session starts with
        the no-op default, and re-attaching a fresh recorder counts only
        post-restore work -- no double counting, no carried state."""
        recorder = PipelineRecorder()
        session = StreamingSession(
            schema, "ewma", alpha=0.5, interval_seconds=INTERVAL,
            recorder=recorder,
        )
        half = len(records) // 2
        session.ingest(records[:half])
        path = tmp_path / "session.kcp"
        save_checkpoint(session, path)

        restored = restore_session(path.read_bytes(), schema=schema)
        assert restored.recorder.enabled is False  # fresh NullRecorder

        fresh = PipelineRecorder()
        restored.attach_recorder(fresh)
        rest = records[records["timestamp"] > restored.watermark]
        restored.ingest(rest)
        restored.flush()
        reg = fresh.registry
        assert reg.get("repro_records_ingested_total").value() == len(rest)
        assert reg.get("repro_intervals_sealed_total").value() == (
            restored.intervals_sealed - session.intervals_sealed
        )
