"""Drivers that keep ``So(t)`` seal a copy.

The seal consumes the observed summary it is handed: past warm-up, the
EWMA and NSHW step writes ``Se(t)`` over it.  Archive replay keeps each
stored span for the next query, and the adaptive detector keeps its
detection history to re-warm a rebuilt forecaster, so both must hand
the seal a copy; sealing the kept summary itself fails here.
"""

import numpy as np
import pytest

from repro.archive import TemporalArchive
from repro.detection import AdaptiveDetector, StreamingSession
from repro.sketch import KArySchema
from repro.streams import make_records

from tests.conftest import make_batches

INTERVAL = 300.0
MODELS = {"ewma": {"alpha": 0.4}, "nshw": {"alpha": 0.4, "beta": 0.2}}


def _report_key(report):
    return (
        report.index, report.threshold, report.error_l2,
        [(a.key, a.estimated_error) for a in report.alarms],
        np.asarray(report.top_keys).tobytes(),
        np.asarray(report.top_errors).tobytes(),
    )


@pytest.mark.parametrize("model", sorted(MODELS))
def test_replay_twice_leaves_every_span_as_stored(model, rng):
    """A second replay reads the same spans and gives the same reports,
    which equal the live session's."""
    schema = KArySchema(depth=3, width=1024, seed=11)
    archive = TemporalArchive(schema, INTERVAL)
    session = StreamingSession(
        schema, model, interval_seconds=INTERVAL, t_fraction=0.05,
        top_n=8, sink=archive.ingest, **MODELS[model],
    )
    n = 12 * 1500
    records = make_records(
        timestamps=np.sort(rng.uniform(0, 12 * INTERVAL, n)),
        dst_ips=rng.integers(0, 600, n),
        byte_counts=rng.integers(40, 2000, n),
    )
    live = [_report_key(r) for r in session.ingest(records) + session.flush()]
    assert live
    stored = [span.summary.table.tobytes() for span in archive.spans]
    for _ in range(2):
        replayed = archive.replay(
            model, t_fraction=0.05, top_n=8, **MODELS[model]
        )
        assert [_report_key(r) for r in replayed] == live
        assert [s.summary.table.tobytes() for s in archive.spans] == stored


@pytest.mark.parametrize("model", sorted(MODELS))
def test_adaptive_history_holds_the_observed_summaries(model, rng):
    schema = KArySchema(depth=5, width=4096, seed=0)
    batches = make_batches(rng, intervals=12)
    detector = AdaptiveDetector(
        schema, model=model, min_history=4, window=8, recalibrate_every=4
    )
    assert list(detector.run(batches))
    assert [s.table.tobytes() for s in detector._detection_history] == [
        schema.from_items(b.keys, b.values).table.tobytes()
        for b in batches[-8:]
    ]
