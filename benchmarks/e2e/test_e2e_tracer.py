"""Span bookkeeping of the benchmark tracer.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import numpy as np
import pytest

from tracer import SESSION_ROOT, Tracer, instrument


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


def test_nested_self_times_sum_to_root_wall(clock):
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    traced_leaf = tracer.wrap("sketch.update", leaf)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(0.5)

    traced_middle = tracer.wrap("detection.report", middle)

    def root():
        clock.advance(3.0)
        traced_middle()
        traced_middle()

    tracer.wrap(SESSION_ROOT, root, root=True)()

    self_s, calls = tracer.self_times()
    assert self_s == {SESSION_ROOT: 3.0, "detection.report": 3.0, "sketch.update": 4.0}
    assert calls == {SESSION_ROOT: 1, "detection.report": 2, "sketch.update": 2}
    name, start, end, parent = tracer.spans[0]
    assert (name, parent) == (SESSION_ROOT, -1)
    assert sum(self_s.values()) == end - start == 10.0


def test_spans_outside_a_root_are_dropped(clock):
    tracer = Tracer(clock=clock)
    child = tracer.wrap("sketch.update", lambda: clock.advance(1.0))
    child()
    assert tracer.spans == []
    tracer.wrap(SESSION_ROOT, child, root=True)()
    assert [s[0] for s in tracer.spans] == [SESSION_ROOT, "sketch.update"]


def test_query_root_prefixes_its_spans(clock):
    tracer = Tracer(clock=clock)
    combine = tracer.wrap("sketch.combine", lambda: clock.advance(1.0))
    tracer.wrap("archive.query", combine, root=True)()
    tracer.wrap(SESSION_ROOT, combine, root=True)()
    assert [s[0] for s in tracer.spans] == [
        "archive.query", "query.sketch.combine", SESSION_ROOT, "sketch.combine",
    ]


def test_reentrant_call_is_one_span(clock):
    tracer = Tracer(clock=clock)
    inner = tracer.wrap("sketch.combine", lambda: clock.advance(1.0))
    outer = tracer.wrap("sketch.combine", inner)  # an override calling super()
    tracer.wrap(SESSION_ROOT, outer, root=True)()
    assert tracer.self_times()[1] == {SESSION_ROOT: 1, "sketch.combine": 1}


def test_unique_is_split_or_dedup_only_under_a_root(clock):
    tracer = Tracer(clock=clock)
    unique = tracer.wrap_unique(np.unique)
    keys = np.array([3, 1, 3], dtype=np.uint64)

    def root():
        unique(keys, return_index=True)
        unique(keys, True)
        unique(keys)
        tracer.wrap("sketch.update", lambda: unique(keys))()

    tracer.wrap(SESSION_ROOT, root, root=True)()
    unique(keys)
    assert [s[0] for s in tracer.spans] == [
        SESSION_ROOT, "streams.split", "streams.split", "detection.dedup",
        "sketch.update",
    ]


def test_median_is_traced_only_directly_under_the_report(clock):
    tracer = Tracer(clock=clock)
    median = tracer.wrap_median(np.median)
    rows = np.arange(6.0).reshape(2, 3)
    f2 = tracer.wrap("sketch.f2", lambda: median(rows))

    def report():
        median(rows, axis=0)
        f2()

    tracer.wrap(SESSION_ROOT, tracer.wrap("detection.report", report), root=True)()
    assert [s[0] for s in tracer.spans] == [
        SESSION_ROOT, "detection.report", "detection.median", "sketch.f2",
    ]


def test_instrumented_session_covers_its_wall_and_restores(tiny_stream):
    from repro.detection import StreamingSession
    from repro.sketch import KArySchema

    original_unique, original_ingest = np.unique, StreamingSession.ingest
    schema = KArySchema(depth=3, width=1024, seed=5)
    tracer = Tracer()
    with instrument(tracer):
        session = StreamingSession(schema, "ewma", interval_seconds=60.0, alpha=0.5)
        for i in range(0, len(tiny_stream), 64):
            session.ingest(tiny_stream[i : i + 64])
        session.flush()
    assert np.unique is original_unique
    assert StreamingSession.ingest is original_ingest

    self_s, calls = tracer.self_times()
    for name in ("streams.extract", "streams.split", "detection.dedup",
                 "sketch.update", "forecast.step", "sketch.combine",
                 "detection.report", "detection.median"):
        assert calls[name] > 0, name
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(self_s.values()) == pytest.approx(roots)
    assert tracer.counts["sketch.update.keys"] == len(tiny_stream)
