"""Bit-identity of the amortized detection hot path.

The amortized seal path -- exact median prescreen, allocation-free
``step_into`` sealing, per-chunk accumulation -- is an execution
strategy, never a result change.  These tests assert **bit-for-bit**
equal :class:`IntervalDetection` reports (thresholds, alarms in order,
top-N keys and errors) between the shipped drivers and the reference
seal path (:mod:`tests.detection.oracle`) across every forecast model,
the streaming session, the offline two-pass detector, the NumPy
hashing fallback, and checkpoint/restore mid-run.
"""

import numpy as np
import pytest

from repro.detection import (
    OfflineTwoPassDetector,
    StreamingSession,
    checkpoint_session,
    restore_session,
)
from repro.sketch import KArySchema
from repro.streams import IntervalStream, make_records

from tests.detection.oracle import assert_reports_identical, oracle_reports

MODELS = [
    ("ma", {"window": 3}),
    ("sma", {"window": 4}),
    ("ewma", {"alpha": 0.4}),
    ("nshw", {"alpha": 0.5, "beta": 0.3}),
    ("arima0", {"ar": (0.5, -0.2), "ma": (0.3,)}),
    ("arima1", {"ar": (0.4,), "ma": (0.2,)}),
    ("shw", {"alpha": 0.4, "beta": 0.2, "gamma": 0.3, "period": 3}),
]
MODEL_IDS = [name for name, _ in MODELS]

INTERVAL = 300.0
CHUNK = 1024


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=2048, seed=3)


@pytest.fixture
def poly_schema():
    # Polynomial hashing: kernel-fused when a compiler is available,
    # NumPy Horner otherwise.
    return KArySchema(depth=5, width=2048, seed=3, family="polynomial")


@pytest.fixture
def records(rng):
    n = 16000
    keys = rng.integers(0, 600, n).astype(np.uint32)
    return make_records(
        timestamps=np.sort(rng.uniform(0, 3000, n)),
        dst_ips=keys,
        byte_counts=rng.pareto(1.3, n) * 500 + 40,
    )


def _oracle(schema, records, model="ewma", **params):
    params = params or {"alpha": 0.4}
    return oracle_reports(
        schema, model, IntervalStream(records, interval_seconds=INTERVAL),
        t_fraction=0.05, top_n=10, **params,
    )


def _run_session(session, records, chunk=CHUNK):
    reports = []
    for start in range(0, len(records), chunk):
        reports.extend(session.ingest(records[start : start + chunk]))
    reports.extend(session.flush())
    return reports


class TestTwoPassEquivalence:
    @pytest.mark.parametrize(("model", "params"), MODELS, ids=MODEL_IDS)
    def test_all_models_bit_identical(self, schema, records, model, params):
        detector = OfflineTwoPassDetector(
            schema, model, t_fraction=0.05, top_n=10, **params
        )
        got = detector.detect(IntervalStream(records, interval_seconds=INTERVAL))
        assert_reports_identical(got, _oracle(schema, records, model, **params))

    def test_polynomial_schema_kernels_on_and_off(
        self, poly_schema, records, monkeypatch
    ):
        """Fused polynomial kernel and the NumPy Horner fallback agree."""
        import repro.hashing._kernels as _kernels

        stream = IntervalStream(records, interval_seconds=INTERVAL)
        reference = _oracle(poly_schema, records)
        amortized = OfflineTwoPassDetector(
            poly_schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10,
        )
        assert_reports_identical(amortized.detect(stream), reference)

        # Kernels force-disabled: the schema (built inside the patch)
        # falls back to NumPy hashing.  Reports stay identical.
        monkeypatch.setattr(_kernels, "_KERNELS", None)
        slow_schema = KArySchema(
            depth=5, width=2048, seed=3, family="polynomial"
        )
        fallback = OfflineTwoPassDetector(
            slow_schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10,
        )
        assert_reports_identical(fallback.detect(stream), reference)

    def test_prescreen_counters(self, schema, records):
        detector = OfflineTwoPassDetector(
            schema, "ewma", alpha=0.4, t_fraction=0.05, top_n=10
        )
        detector.detect(IntervalStream(records, interval_seconds=INTERVAL))
        assert 0 < detector.stats["median_evaluated"]
        assert detector.stats["median_evaluated"] <= detector.stats["candidates"]


class TestTieBreaking:
    def test_massive_bound_ties(self, schema):
        """Equal-magnitude errors everywhere; prescreen must still match."""
        from repro.detection import build_interval_report

        keys = np.arange(1, 400, dtype=np.uint64)
        error = schema.from_items(keys, np.full(len(keys), 7.0))
        reference = build_interval_report(
            error, keys, interval=0, t_fraction=0.05, top_n=25,
            schema=schema, prescreen=False,
        )
        prescreened = build_interval_report(
            error, keys, interval=0, t_fraction=0.05, top_n=25,
            schema=schema, prescreen=True,
        )
        assert_reports_identical([prescreened], [reference])

    def test_zero_threshold_and_no_alarming(self, schema, rng):
        from repro.detection import build_interval_report

        keys = np.unique(rng.integers(0, 2**32, 300).astype(np.uint64))
        error = schema.from_items(keys, rng.normal(size=len(keys)))
        for t_fraction in (0.0, None):
            reference = build_interval_report(
                error, keys, interval=0, t_fraction=t_fraction, top_n=10,
                schema=schema, prescreen=False,
            )
            prescreened = build_interval_report(
                error, keys, interval=0, t_fraction=t_fraction, top_n=10,
                schema=schema, prescreen=True,
            )
            assert_reports_identical([prescreened], [reference])


class TestSessionEquivalence:
    @pytest.mark.parametrize(("model", "params"), MODELS, ids=MODEL_IDS)
    def test_serial_sessions(self, schema, records, model, params):
        session = StreamingSession(
            schema, model, interval_seconds=INTERVAL,
            t_fraction=0.05, top_n=10, **params,
        )
        assert_reports_identical(
            _run_session(session, records),
            _oracle(schema, records, model, **params),
        )


class TestCheckpointInteraction:
    def test_kernels_off_resume_identical(self, records, monkeypatch):
        """A mid-run checkpoint resumes bit-identically on NumPy hashing."""
        import repro.hashing._kernels as _kernels

        monkeypatch.setattr(_kernels, "_KERNELS", None)
        schema = KArySchema(depth=5, width=2048, seed=3, family="polynomial")
        session = StreamingSession(
            schema, "ewma", alpha=0.4, interval_seconds=INTERVAL,
            t_fraction=0.05, top_n=10,
        )
        reports = []
        cut = 6 * CHUNK
        for start in range(0, cut, CHUNK):
            reports.extend(session.ingest(records[start : start + CHUNK]))
        restored = restore_session(checkpoint_session(session))
        rest = records[records["timestamp"] > restored.watermark]
        reports.extend(_run_session(restored, rest))
        assert_reports_identical(reports, _oracle(schema, records))
