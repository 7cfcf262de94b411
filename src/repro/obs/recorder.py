"""Pipeline recorders: the obs layer's single integration surface.

Every instrumented component (sessions, detectors, engines, the grid
search) takes one ``recorder`` argument and talks to it through five
verbs -- ``count``, ``gauge``, ``observe``, ``time`` and ``event``.  Two
implementations exist:

:class:`NullRecorder`
    The default.  Every verb is a no-op and :meth:`NullRecorder.time`
    returns a shared, reusable context manager, so the disabled path
    allocates nothing and costs one attribute call per instrumentation
    point.  Components guard anything more expensive than a bare verb
    call (building label dicts, reading cache stats) behind
    ``recorder.enabled``.

:class:`PipelineRecorder`
    The real thing: verbs land in a :class:`~repro.obs.registry.MetricsRegistry`
    (metrics are created lazily on first use, so components need no
    registration ceremony), stage timings go to the
    ``repro_stage_seconds`` histogram, and :meth:`PipelineRecorder.event`
    appends structured trace events to a bounded ring buffer
    (oldest-evicted) for after-the-fact debugging of exactly the
    "why did interval 412 seal late?" questions metrics alone can't
    answer.

Recorders are execution observers, never result state: a checkpoint
does not carry one, and attaching or detaching a recorder must not
change a single bit of any detection report (tests assert this across
the full model/topology matrix).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Optional

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)

__all__ = ["NullRecorder", "PipelineRecorder", "NULL_RECORDER"]

#: Histogram receiving every stage timing, labelled by stage name.
STAGE_HISTOGRAM = "repro_stage_seconds"

#: Default trace ring-buffer capacity (events, oldest evicted first).
DEFAULT_TRACE_CAPACITY = 2048


class _NullTimer:
    """Reusable no-op context manager (one instance per process)."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_TIMER = _NullTimer()


class NullRecorder:
    """No-op recorder: observability disabled, zero allocation.

    All verbs accept and discard the real recorder's signatures, so
    instrumented code never branches on which recorder it holds; the
    one sanctioned branch is ``if recorder.enabled:`` around label-dict
    construction or stat reads that only exist to feed the recorder.
    """

    enabled = False

    def count(self, name, amount=1, **labels) -> None:
        pass

    def gauge(self, name, value, **labels) -> None:
        pass

    def sync_counter(self, name, value, **labels) -> None:
        pass

    def observe(self, name, value, **labels) -> None:
        pass

    def event(self, kind, **fields) -> None:
        pass

    def time(self, stage) -> _NullTimer:
        return _NULL_TIMER

    def preregister(self, *names) -> None:
        pass

    def preregister_labelled(self, name, label, values) -> None:
        pass

    def preregister_stage(self, *stages) -> None:
        pass


#: Shared default instance -- components normalize ``recorder=None`` to
#: this, so the disabled path never constructs anything.
NULL_RECORDER = NullRecorder()


class _StageTimer:
    """Times one ``with`` block into the stage histogram."""

    __slots__ = ("_recorder", "_stage", "_start")

    def __init__(self, recorder: "PipelineRecorder", stage: str) -> None:
        self._recorder = recorder
        self._stage = stage

    def __enter__(self) -> "_StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._recorder.observe(
            STAGE_HISTOGRAM, time.perf_counter() - self._start,
            stage=self._stage,
        )


class PipelineRecorder:
    """Registry-backed recorder with a structured trace-event ring buffer.

    Parameters
    ----------
    registry:
        An existing :class:`MetricsRegistry` to record into (several
        recorders may share one); a private registry is created when
        omitted.
    trace_capacity:
        Ring-buffer size in events; the oldest events are evicted once
        full.  ``0`` disables tracing while keeping metrics.
    clock:
        Wall-clock source for event timestamps (``time.time`` by
        default; injectable for deterministic tests and golden files).
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        clock=time.time,
    ) -> None:
        if trace_capacity < 0:
            raise ValueError(f"trace_capacity must be >= 0, got {trace_capacity}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._events: deque = deque(maxlen=trace_capacity or None)
        self._trace_capacity = int(trace_capacity)
        self._seq = itertools.count()
        self._clock = clock
        # One recorder may be fed from several threads at once (callers
        # may share it across threads), so every mutating verb
        # serializes on this lock.  A single-threaded caller takes it
        # uncontended -- a few ns per verb.
        self._lock = threading.Lock()
        self.registry.histogram(
            STAGE_HISTOGRAM,
            help="Pipeline stage latency in seconds.",
            labels=("stage",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )

    # -- the five verbs ------------------------------------------------------

    def count(self, name: str, amount: float = 1, **labels) -> None:
        """Increment counter ``name`` (created on first use)."""
        with self._lock:
            self.registry.counter(name, labels=tuple(sorted(labels))).inc(
                amount, **labels
            )

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge ``name`` (created on first use)."""
        with self._lock:
            self.registry.gauge(name, labels=tuple(sorted(labels))).set(
                value, **labels
            )

    def sync_counter(self, name: str, value: float, **labels) -> None:
        """Mirror an externally-maintained monotonic tally into a counter.

        Used to absorb pre-existing cumulative counts (kernel call
        tallies) without double-counting: the source stays authoritative,
        the registry converges to it at each sync point.
        """
        with self._lock:
            self.registry.counter(name, labels=tuple(sorted(labels))).set_to(
                value, **labels
            )

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        with self._lock:
            self.registry.histogram(name, labels=tuple(sorted(labels))).observe(
                value, **labels
            )

    def time(self, stage: str) -> _StageTimer:
        """Context manager timing its block into ``repro_stage_seconds``."""
        return _StageTimer(self, stage)

    def event(self, kind: str, **fields) -> None:
        """Append one structured trace event to the ring buffer."""
        if self._trace_capacity == 0:
            return
        record = {"seq": next(self._seq), "time": self._clock(), "kind": kind}
        record.update(fields)
        with self._lock:
            self._events.append(record)

    # -- inspection / export -------------------------------------------------

    @property
    def trace_capacity(self) -> int:
        return self._trace_capacity

    def preregister(self, *names: str) -> None:
        """Create unlabelled counter series at zero.

        Metrics are otherwise lazy (created on first increment), which
        makes "no events yet" indistinguishable from "not instrumented"
        in a scrape.  Components call this once when a recorder attaches
        so every export carries the full series set.
        """
        for name in names:
            self.count(name, 0)

    def preregister_labelled(
        self, name: str, label: str, values
    ) -> None:
        """Create one zero series per label value for counter ``name``."""
        for value in values:
            self.count(name, 0, **{label: value})

    def preregister_stage(self, *stages: str) -> None:
        """Create zero ``repro_stage_seconds{stage=...}`` series.

        The stage histogram is otherwise lazy, so a stage that never
        fires (e.g. ``recover`` when the key source is two-pass) would
        be missing from the export instead of reading zero.
        """
        histogram = self.registry.histogram(
            STAGE_HISTOGRAM, labels=("stage",)
        )
        for stage in stages:
            histogram.touch(stage=stage)

    def events(self, kind: Optional[str] = None) -> list:
        """Buffered trace events, oldest first (optionally one kind)."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e["kind"] == kind]

    def prometheus_text(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        from repro.obs.export import to_prometheus_text

        return to_prometheus_text(self.registry)

    def json_dict(self, events: bool = True) -> dict:
        """JSON-safe snapshot of the registry (and optionally the trace)."""
        from repro.obs.export import to_json_dict

        out = to_json_dict(self.registry)
        if events:
            out["events"] = self.events()
        return out

    def write(self, path, events: bool = True) -> None:
        """Write metrics to ``path``; format chosen by extension.

        ``.json`` gets the JSON snapshot (with trace events unless
        ``events=False``); anything else gets Prometheus text.  The
        write is atomic (tmp file + rename) so a scraper never reads a
        torn flush.
        """
        path = os.fspath(path)
        if path.endswith(".json"):
            payload = json.dumps(self.json_dict(events=events), indent=2) + "\n"
        else:
            payload = self.prometheus_text()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
