"""End-to-end replay-free recovery: the ``key_source`` axis.

Two contracts, layered on the PR-4 amortization matrix:

* **Counter-plane identity** -- a two-pass run over an
  :class:`InvertibleKArySchema` produces reports bit-identical to the
  same run over a plain :class:`KArySchema` (the candidate planes never
  perturb the counters).
* **Oracle identity** -- for every key source, the shipped seal path
  (scratch summaries, median prescreen) reports exactly what the
  reference seal path does.
"""

import numpy as np
import pytest

from repro.detection import (
    OfflineTwoPassDetector,
    StreamingSession,
    checkpoint_session,
    restore_session,
)
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams import IntervalStream, make_records
from repro.traffic.anomalies import inject_dos

from tests.detection.oracle import oracle_reports

INTERVAL = 300.0


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


@pytest.fixture
def records(rng):
    n = 16000
    keys = rng.integers(0, 600, n).astype(np.uint32)
    return make_records(
        timestamps=np.sort(rng.uniform(0, 3000, n)),
        dst_ips=keys,
        byte_counts=(rng.pareto(1.3, n) * 500 + 40).astype(np.uint64),
    )


@pytest.fixture
def inv_schema():
    return InvertibleKArySchema(depth=5, width=2048, seed=3)


class TestDetectorKeySource:
    def test_online_rejected(self, inv_schema):
        with pytest.raises(ValueError, match="online"):
            OfflineTwoPassDetector(
                inv_schema, "ewma", alpha=0.5, key_source="online"
            )

    def test_twopass_reports_identical_to_plain_schema(
        self, records, inv_schema
    ):
        """Candidate planes are invisible to the replay path."""
        plain = KArySchema(depth=5, width=2048, seed=3)
        stream = IntervalStream(records, interval_seconds=INTERVAL)
        reference = OfflineTwoPassDetector(
            plain, "ewma", alpha=0.4, t_fraction=0.05, top_n=10
        ).detect(stream)
        got = OfflineTwoPassDetector(
            inv_schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10,
            key_source="twopass",
        ).detect(stream)
        _assert_reports_identical(got, reference)

    @pytest.mark.parametrize("key_source", ["twopass", "invertible"])
    def test_knob_matrix_per_key_source(
        self, records, inv_schema, key_source
    ):
        """The amortized seal path is execution-only on every key source."""
        stream = IntervalStream(records, interval_seconds=INTERVAL)
        got = OfflineTwoPassDetector(
            inv_schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10,
            key_source=key_source,
        ).detect(stream)
        reference = oracle_reports(
            inv_schema, "ewma", stream, alpha=0.4, t_fraction=0.05,
            top_n=10, key_source=key_source,
        )
        _assert_reports_identical(got, reference)

    def test_invertible_catches_injected_dos(self, rng, inv_schema):
        background = make_records(
            timestamps=np.sort(rng.uniform(0, 3000, 12000)),
            dst_ips=rng.integers(0, 500, 12000).astype(np.uint32),
            byte_counts=rng.integers(40, 1500, 12000).astype(np.uint64),
        )
        attack, event = inject_dos(
            rng, start=1500.0, end=1800.0, records_per_second=120.0
        )
        records = np.sort(
            np.concatenate([background, attack]), order="timestamp"
        )
        detector = OfflineTwoPassDetector(
            inv_schema, "ewma", alpha=0.5, t_fraction=0.05,
            key_source="invertible",
        )
        reports = detector.detect(
            IntervalStream(records, interval_seconds=INTERVAL)
        )
        onset = int(event.start // INTERVAL)
        alarmed = {
            alarm.key
            for report in reports
            if report.index >= onset
            for alarm in report.alarms
        }
        assert set(event.keys) <= alarmed


class TestSessionKeySource:
    def test_online_rejected(self, inv_schema):
        with pytest.raises(ValueError, match="online"):
            StreamingSession(
                inv_schema, "ewma", alpha=0.5, key_source="online"
            )

    def test_session_matches_detector(self, records, inv_schema):
        stream = IntervalStream(records, interval_seconds=INTERVAL)
        reference = OfflineTwoPassDetector(
            inv_schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10,
            key_source="invertible",
        ).detect(stream)
        session = StreamingSession(
            inv_schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10,
            key_source="invertible",
        )
        reports = session.ingest(records)
        reports.extend(session.flush())
        _assert_reports_identical(reports, reference)

    def test_checkpoint_preserves_key_source(self, records, inv_schema):
        uninterrupted = StreamingSession(
            inv_schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10,
            key_source="invertible",
        )
        reference = uninterrupted.ingest(records)
        reference.extend(uninterrupted.flush())

        session = StreamingSession(
            inv_schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10,
            key_source="invertible",
        )
        cut = len(records) // 2
        reports = session.ingest(records[:cut])
        resumed = restore_session(
            checkpoint_session(session), schema=inv_schema
        )
        assert resumed.key_source == "invertible"
        rest = records[records["timestamp"] > resumed.watermark]
        reports.extend(resumed.ingest(rest))
        reports.extend(resumed.flush())
        _assert_reports_identical(reports, reference)
