"""Tests for session checkpoint/restore.

The acceptance property: ``restore(checkpoint(session))`` fed the
remainder of the trace emits reports **bit-identical** to the
uninterrupted run -- same thresholds, same alarms, same top-N -- for
every forecast model, at any cut point.
"""

import numpy as np
import pytest

from repro.detection import (
    StreamingSession,
    checkpoint_session,
    load_checkpoint,
    restore_session,
    save_checkpoint,
)
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams import make_records

MODELS = [
    ("ma", {"window": 3}),
    ("sma", {"window": 4}),
    ("ewma", {"alpha": 0.4}),
    ("nshw", {"alpha": 0.5, "beta": 0.3}),
    ("arima0", {"ar": (0.5, -0.2), "ma": (0.3,)}),
    ("arima1", {"ar": (0.4,), "ma": (0.2,)}),
]

MODEL_IDS = [name for name, _ in MODELS]

INTERVAL = 300.0
CHUNK = 1024


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=2048, seed=3)


@pytest.fixture
def records(rng):
    n = 16000
    keys = rng.integers(0, 600, n).astype(np.uint32)
    return make_records(
        timestamps=np.sort(rng.uniform(0, 3000, n)),
        dst_ips=keys,
        byte_counts=rng.pareto(1.3, n) * 500 + 40,
    )


def _run(session, records, chunk=CHUNK):
    reports = []
    for start in range(0, len(records), chunk):
        reports.extend(session.ingest(records[start : start + chunk]))
    reports.extend(session.flush())
    return reports


def _assert_reports_identical(resumed, reference):
    assert len(resumed) == len(reference)
    for a, b in zip(resumed, reference):
        assert a.index == b.index
        assert a.threshold == b.threshold  # bit-identical, not approx
        assert a.error_l2 == b.error_l2
        assert [(x.key, x.estimated_error) for x in a.alarms] == [
            (x.key, x.estimated_error) for x in b.alarms
        ]
        assert np.array_equal(a.top_keys, b.top_keys)
        assert np.array_equal(a.top_errors, b.top_errors)


def _interrupted_run(make_session, records, cut_chunks, restore=restore_session,
                     **restore_kwargs):
    """Ingest ``cut_chunks`` chunks, checkpoint, restore, finish the trace."""
    session = make_session()
    reports = []
    for start in range(0, cut_chunks * CHUNK, CHUNK):
        reports.extend(session.ingest(records[start : start + CHUNK]))
    blob = checkpoint_session(session)
    del session

    resumed = restore(blob, **restore_kwargs)
    rest = records[records["timestamp"] > resumed.watermark]
    reports.extend(_run(resumed, rest))
    return reports


class TestSerialResumeEquivalence:
    @pytest.mark.parametrize("model,params", MODELS, ids=MODEL_IDS)
    def test_every_model_resumes_bit_identical(self, schema, records, model, params):
        def make():
            return StreamingSession(
                schema, model, interval_seconds=INTERVAL,
                t_fraction=0.02, top_n=5, **params,
            )

        reference = _run(make(), records)
        got = _interrupted_run(make, records, cut_chunks=9, schema=schema)
        _assert_reports_identical(got, reference)

    @pytest.mark.parametrize("cut_chunks", [1, 5, 10, 15])
    def test_any_cut_point_resumes_bit_identical(self, schema, records, cut_chunks):
        def make():
            return StreamingSession(
                schema, "ewma", interval_seconds=INTERVAL,
                t_fraction=0.02, alpha=0.4,
            )

        reference = _run(make(), records)
        got = _interrupted_run(make, records, cut_chunks=cut_chunks, schema=schema)
        _assert_reports_identical(got, reference)

    def test_checkpoint_of_fresh_session(self, schema):
        session = StreamingSession(schema, "ewma", alpha=0.4)
        restored = restore_session(checkpoint_session(session), schema=schema)
        assert restored.current_interval is None
        assert restored.records_ingested == 0
        assert restored.watermark == float("-inf")

    def test_checkpointed_session_stays_usable(self, schema, records):
        session = StreamingSession(
            schema, "ewma", interval_seconds=INTERVAL, t_fraction=0.02, alpha=0.4
        )
        reference = _run(
            StreamingSession(
                schema, "ewma", interval_seconds=INTERVAL,
                t_fraction=0.02, alpha=0.4,
            ),
            records,
        )
        reports = []
        for start in range(0, len(records), CHUNK):
            checkpoint_session(session)  # snapshot must not perturb state
            reports.extend(session.ingest(records[start : start + CHUNK]))
        reports.extend(session.flush())
        _assert_reports_identical(reports, reference)

    def test_restore_preserves_config_and_cursors(self, schema, records):
        session = StreamingSession(
            schema, "nshw", interval_seconds=150.0, key_scheme="src_ip",
            value_scheme="packets", t_fraction=0.07, top_n=3,
            lateness_tolerance=2.0, alpha=0.5, beta=0.3,
        )
        session.ingest(records[:5000])
        restored = restore_session(checkpoint_session(session))
        assert restored.interval_seconds == 150.0
        assert restored.key_scheme.name == "src_ip"
        assert restored.value_scheme.name == "packets"
        assert restored.t_fraction == 0.07
        assert restored.top_n == 3
        assert restored.lateness_tolerance == 2.0
        assert restored.current_interval == session.current_interval
        assert restored.records_ingested == session.records_ingested
        assert restored.intervals_sealed == session.intervals_sealed
        assert restored.watermark == session.watermark

    def test_dst_prefix_key_scheme_roundtrips(self, schema, records):
        from repro.streams.keys import DstPrefixKey

        session = StreamingSession(
            schema, "ewma", interval_seconds=INTERVAL,
            key_scheme=DstPrefixKey(prefix_len=16), alpha=0.4,
        )
        session.ingest(records[:5000])
        restored = restore_session(checkpoint_session(session))
        assert isinstance(restored.key_scheme, DstPrefixKey)
        assert restored.key_scheme.prefix_len == 16

    def test_file_roundtrip(self, schema, records, tmp_path):
        def make():
            return StreamingSession(
                schema, "ewma", interval_seconds=INTERVAL,
                t_fraction=0.02, alpha=0.4,
            )

        reference = _run(make(), records)
        session = make()
        reports = []
        for start in range(0, 8 * CHUNK, CHUNK):
            reports.extend(session.ingest(records[start : start + CHUNK]))
        path = tmp_path / "session.kcp"
        save_checkpoint(session, path)
        assert path.exists()
        assert not (tmp_path / "session.kcp.tmp").exists()  # atomic rename
        resumed = load_checkpoint(path, schema=schema)
        rest = records[records["timestamp"] > resumed.watermark]
        reports.extend(_run(resumed, rest))
        _assert_reports_identical(reports, reference)


class TestCheckpointRefusals:
    def test_entropy_seeded_schema_refused(self):
        session = StreamingSession(
            KArySchema(depth=2, width=64, seed=None), "ewma", alpha=0.4
        )
        with pytest.raises(ValueError, match="seed=None"):
            checkpoint_session(session)

    def test_unregistered_key_scheme_refused(self, schema):
        from repro.streams.keys import KeyScheme

        class Custom(KeyScheme):
            name = "custom"
            bits = 32

            def extract(self, records):
                return records["dst_ip"].astype(np.uint64)

        session = StreamingSession(
            schema, "ewma", key_scheme=Custom(), alpha=0.4
        )
        with pytest.raises(ValueError, match="key scheme"):
            checkpoint_session(session)

    def test_unregistered_value_scheme_refused(self, schema):
        from repro.streams.keys import ValueScheme

        scheme = ValueScheme("custom", lambda r: r["bytes"].astype(np.float64))
        session = StreamingSession(
            schema, "ewma", value_scheme=scheme, alpha=0.4
        )
        with pytest.raises(ValueError, match="value scheme"):
            checkpoint_session(session)

    def test_unregistered_forecaster_refused(self, schema):
        from repro.forecast.smoothing import EWMAForecaster

        class CustomEWMA(EWMAForecaster):
            pass

        session = StreamingSession(schema, CustomEWMA(alpha=0.4))
        with pytest.raises(ValueError, match="forecaster"):
            checkpoint_session(session)

    def test_session_subclass_refused(self, schema):
        class Custom(StreamingSession):
            pass

        with pytest.raises(ValueError, match="Custom"):
            checkpoint_session(Custom(schema, "ewma", alpha=0.4))

    def test_non_checkpoint_blob_refused(self):
        with pytest.raises(ValueError, match="magic"):
            restore_session(b"not a checkpoint at all")

    def test_wrong_format_refused(self):
        from repro.sketch.serialization import dumps_checkpoint

        blob = dumps_checkpoint({"format": "something-else"}, {})
        with pytest.raises(ValueError, match="streaming-session"):
            restore_session(blob)

    def test_schema_mismatch_on_restore_refused(self, schema, records):
        session = StreamingSession(schema, "ewma", alpha=0.4)
        session.ingest(records[:2000])
        blob = checkpoint_session(session)
        other = KArySchema(depth=5, width=2048, seed=99)
        with pytest.raises(ValueError, match="seed"):
            restore_session(blob, schema=other)

    def test_sharded_checkpoint_refused(self, schema, records):
        """A sharded session's checkpoint meta (kind ``"sharded"`` plus a
        ``sharded`` block) is refused by kind, before anything is built."""
        from repro.sketch.serialization import dumps_checkpoint, loads_checkpoint

        session = StreamingSession(schema, "ewma", alpha=0.4)
        session.ingest(records[:2000])
        meta, body = loads_checkpoint(checkpoint_session(session), schema=schema)
        meta["session"] = "sharded"
        meta["sharded"] = {
            "n_workers": 2, "backend": "thread", "partition": "chunk",
            "task_timeout": None, "max_retries": 2, "retry_backoff": 0.1,
            "retry_backoff_max": 5.0,
        }
        blob = dumps_checkpoint(meta, body)
        with pytest.raises(ValueError, match="'sharded' session"):
            restore_session(blob, schema=schema)


class TestCheckpointMeta:
    def test_meta_is_inspectable_without_schema(self, schema, records):
        from repro.sketch.serialization import checkpoint_meta

        session = StreamingSession(
            schema, "ewma", interval_seconds=INTERVAL, alpha=0.4
        )
        session.ingest(records[:5000])
        meta = checkpoint_meta(checkpoint_session(session))
        assert meta["format"] == "streaming-session"
        assert meta["session"] == "serial"
        assert meta["schema"]["kind"] == "kary"
        assert meta["schema"]["seed"] == 3
        assert meta["forecaster"]["class"] == "EWMAForecaster"
        assert meta["cursor"]["records_ingested"] == 5000


class TestBufferedCheckpoint:
    """A checkpoint stores the open interval's buffer raw and never flushes
    it, so even the invertible sketch's vote planes -- which depend on
    where flushes fall -- resume exactly."""

    BUF_CHUNK = 64
    BUF_INTERVAL = 60.0

    @pytest.fixture
    def stream(self, rng):
        n = 2000
        return make_records(
            timestamps=np.sort(rng.uniform(0, 5 * self.BUF_INTERVAL, n)),
            dst_ips=rng.integers(0, 300, n).astype(np.uint32),
            byte_counts=rng.integers(40, 1500, n),
        )

    @staticmethod
    def _schema(invertible):
        cls = InvertibleKArySchema if invertible else KArySchema
        return cls(depth=5, width=1024, seed=11)

    @staticmethod
    def _sink(sealed):
        def sink(observed, keys, index):
            sealed.append((index, np.array(observed.table).view(np.uint64)))

        return sink

    def _make(self, schema, sealed):
        return StreamingSession(
            schema, "ewma", interval_seconds=self.BUF_INTERVAL,
            t_fraction=0.05, top_n=10, alpha=0.5, sink=self._sink(sealed),
            key_source=(
                "invertible" if isinstance(schema, InvertibleKArySchema)
                else "twopass"
            ),
        )

    def _feed(self, session, records, reports, checkpoint_each=False):
        for start in range(0, len(records), self.BUF_CHUNK):
            if checkpoint_each:
                checkpoint_session(session)
            reports.extend(session.ingest(records[start : start + self.BUF_CHUNK]))

    def _reference(self, schema, records):
        sealed, reports = [], []
        session = self._make(schema, sealed)
        self._feed(session, records, reports)
        reports.extend(session.flush())
        return sealed, reports

    def _resume(self, schema, records, blob, sealed, reports):
        resumed = restore_session(blob, schema=schema)
        resumed.sink = self._sink(sealed)  # checkpoints never carry a sink
        self._feed(
            resumed, records[records["timestamp"] > resumed.watermark], reports
        )
        reports.extend(resumed.flush())

    @staticmethod
    def _assert_sealed_identical(got, want):
        assert [i for i, _ in got] == [i for i, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("invertible", [False, True], ids=["kary", "invertible"])
    def test_resume_mid_buffer_bit_identical(self, stream, invertible):
        schema = self._schema(invertible)
        ref_sealed, ref_reports = self._reference(schema, stream)

        sealed, reports = [], []
        session = self._make(schema, sealed)
        self._feed(session, stream[: 10 * self.BUF_CHUNK], reports)
        assert session._interval.buffered > 0  # cut inside the buffer
        blob = checkpoint_session(session)
        self._resume(schema, stream, blob, sealed, reports)

        self._assert_sealed_identical(sealed, ref_sealed)
        _assert_reports_identical(reports, ref_reports)

    @pytest.mark.parametrize("invertible", [False, True], ids=["kary", "invertible"])
    def test_checkpointing_leaves_live_session_unchanged(self, stream, invertible):
        schema = self._schema(invertible)
        ref_sealed, ref_reports = self._reference(schema, stream)

        sealed, reports = [], []
        session = self._make(schema, sealed)
        self._feed(session, stream, reports, checkpoint_each=True)
        reports.extend(session.flush())

        self._assert_sealed_identical(sealed, ref_sealed)
        _assert_reports_identical(reports, ref_reports)

    def test_checkpoint_without_buffer_fields_restores(self, stream):
        """A checkpoint written before the buffer existed has every record
        folded into its sketch and no ``buffer_*`` fields."""
        from repro.sketch.serialization import dumps_checkpoint, loads_checkpoint

        schema = self._schema(invertible=False)
        ref_sealed, ref_reports = self._reference(schema, stream)

        sealed, reports = [], []
        session = self._make(schema, sealed)
        self._feed(session, stream[: 10 * self.BUF_CHUNK], reports)
        session._interval.flush()
        meta, body = loads_checkpoint(checkpoint_session(session), schema=schema)
        del body["accumulation"]["buffer_keys"]
        del body["accumulation"]["buffer_values"]
        blob = dumps_checkpoint(meta, body)
        assert restore_session(blob, schema=schema)._interval.buffered == 0
        self._resume(schema, stream, blob, sealed, reports)

        self._assert_sealed_identical(sealed, ref_sealed)
        _assert_reports_identical(reports, ref_reports)
