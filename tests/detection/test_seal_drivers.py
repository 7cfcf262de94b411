"""Every driver of the seal step reports exactly what the reference does.

All detection drivers close an interval through one
:class:`~repro.detection.session.IntervalSealer`; they differ only in how
they produce its ``(observed, keys, index)`` input -- chunked or whole,
per-site and merged over TCP, or replayed from the archive.  On one
small trace, and on one whose intervals 5 and 6 hold no records, each
driver's reports (interval, threshold, ``error_l2``, alarms, top-N) must
equal the reference seal path of :mod:`tests.detection.oracle` bit for
bit, for EWMA with two-pass keys and for an invertible schema with
invertible recovery (two drivers run two-pass keys there; see
:data:`TWO_PASS_ONLY`).  Byte counts are integral, so every COMBINE of
partial sketches is exact.  The batch detectors seal each batch as one
whole interval, so they refuse a chunked or decreasing stream.
"""

import numpy as np
import pytest

from repro.archive import TemporalArchive
from repro.detection import (
    AdaptiveDetector,
    OfflineTwoPassDetector,
    OnlineDetector,
    StreamingSession,
)
from repro.distributed import run_loopback
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams import IntervalStream, iter_interval_columns, make_records
from repro.streams.model import KeyedUpdates

from tests.detection.oracle import assert_reports_identical, oracle_reports

INTERVAL = 300.0
T_FRACTION = 0.05
TOP_N = 8
ALPHA = 0.5
CHUNK = 256

CONFIGS = {
    "kary-twopass": (KArySchema, "twopass"),
    "invertible-invertible": (InvertibleKArySchema, "invertible"),
}


@pytest.fixture
def trace(rng):
    n = 4800
    return make_records(
        timestamps=np.sort(rng.uniform(0, 12 * INTERVAL, n)),
        dst_ips=rng.integers(0, 400, n).astype(np.uint32),
        byte_counts=rng.integers(40, 1500, n).astype(np.uint64),
    )


@pytest.fixture
def gap_trace(rng):
    """Twelve intervals, of which 5 and 6 hold no records."""
    n = 4000
    timestamps = np.sort(rng.uniform(0, 10 * INTERVAL, n))
    timestamps[timestamps >= 5 * INTERVAL] += 2 * INTERVAL
    return make_records(
        timestamps=timestamps,
        dst_ips=rng.integers(0, 400, n).astype(np.uint32),
        byte_counts=rng.integers(40, 1500, n).astype(np.uint64),
    )


def _session_reports(session, records):
    reports = []
    for start in range(0, len(records), CHUNK):
        reports.extend(session.ingest(records[start : start + CHUNK]))
    reports.extend(session.flush())
    return reports


def _session(cls, schema, key_source, **kwargs):
    return cls(
        schema, "ewma", alpha=ALPHA, interval_seconds=INTERVAL,
        t_fraction=T_FRACTION, top_n=TOP_N, key_source=key_source, **kwargs,
    )


def _detector(schema, key_source):
    return OfflineTwoPassDetector(
        schema, "ewma", alpha=ALPHA, t_fraction=T_FRACTION, top_n=TOP_N,
        key_source=key_source,
    )


def _archive_replay(schema, key_source, records):
    archive = TemporalArchive(schema, INTERVAL)
    _session_reports(
        _session(StreamingSession, schema, key_source, sink=archive.ingest),
        records,
    )
    return archive.replay(
        "ewma", alpha=ALPHA, t_fraction=T_FRACTION, top_n=TOP_N
    )


DRIVERS = {
    "blocking": lambda schema, ks, records: _session_reports(
        _session(StreamingSession, schema, ks), records
    ),
    "twopass_run": lambda schema, ks, records: list(
        _detector(schema, ks).run(IntervalStream(records, INTERVAL))
    ),
    "twopass_detect_many": lambda schema, ks, records: _detector(
        schema, ks
    ).detect_many([IntervalStream(records, INTERVAL)]),
    "twopass_columns": lambda schema, ks, records: list(
        _detector(schema, ks).run(iter_interval_columns(records, INTERVAL))
    ),
    "archive_replay": _archive_replay,
    "loopback": lambda schema, ks, records: run_loopback(
        records, schema, "ewma", alpha=ALPHA, interval_seconds=INTERVAL,
        key_source=ks, t_fraction=T_FRACTION, top_n=TOP_N,
    ).reports,
}

#: Drivers checked with two-pass keys on every schema.  Archive replay
#: reseals with the key sets the archive kept, and recovering sources
#: hand the sink none.  The coordinator COMBINEs per-site invertible
#: sketches, whose candidate votes merge by majority and can elect a
#: different bucket candidate than one stream's vote would; the counters
#: (and so ``error_l2`` and thresholds) still match exactly.
TWO_PASS_ONLY = ("archive_replay", "loopback")


def _check_against_reference(records, config, driver):
    schema_cls, key_source = CONFIGS[config]
    schema = schema_cls(depth=5, width=1024, seed=11)
    if driver in TWO_PASS_ONLY:
        key_source = "twopass"
    got = DRIVERS[driver](schema, key_source, records)
    reference = oracle_reports(
        schema, "ewma", IntervalStream(records, INTERVAL),
        t_fraction=T_FRACTION, top_n=TOP_N, key_source=key_source,
        alpha=ALPHA,
    )
    assert len(reference) == 11  # 12 intervals, one warm-up
    assert any(r.alarms for r in reference)
    assert_reports_identical(got, reference)


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("config", CONFIGS)
def test_driver_matches_reference(trace, config, driver):
    _check_against_reference(trace, config, driver)


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("config", CONFIGS)
def test_empty_intervals_seal_like_the_reference(gap_trace, config, driver):
    """Intervals with no records seal empty on every path: the batch
    detectors fill the indices ``iter_interval_columns`` skips."""
    _check_against_reference(gap_trace, config, driver)


BATCH_DETECTORS = {
    "twopass_run": lambda schema, batches: list(
        _detector(schema, "twopass").run(batches)
    ),
    "twopass_detect_many": lambda schema, batches: _detector(
        schema, "twopass"
    ).detect_many([batches]),
    "online": lambda schema, batches: list(
        OnlineDetector(schema, "ewma", alpha=ALPHA).run(batches)
    ),
    "adaptive": lambda schema, batches: list(
        AdaptiveDetector(
            schema, window=4, recalibrate_every=2, min_history=2,
            search_width=64, search_passes=1,
        ).run(batches)
    ),
}


@pytest.mark.parametrize("detector", BATCH_DETECTORS)
def test_batch_detectors_refuse_chunked_and_decreasing_streams(trace, detector):
    """A batch detector seals each batch whole, so a stream cut into
    chunks would seal an interval several times: it raises instead."""
    schema = KArySchema(depth=5, width=1024, seed=11)
    run = BATCH_DETECTORS[detector]
    chunked = list(iter_interval_columns(trace, INTERVAL, chunk_records=100))
    decreasing = list(IntervalStream(trace, INTERVAL))[::-1]
    for batches in (chunked, decreasing):
        with pytest.raises(ValueError, match="ingest_columns"):
            run(schema, batches)
    fractional = [KeyedUpdates(index=0.5, keys=chunked[0].keys,
                               values=chunked[0].values)]
    with pytest.raises(ValueError, match="must be an integer"):
        run(schema, fractional)
