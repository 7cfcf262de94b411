"""Outside-in span tracer for the end-to-end benchmark.

Spans are recorded by wrapping the public entry points of each ``repro``
layer from outside -- monkeypatching classes and module attributes in the
benchmark's own process -- so nothing under ``src/`` knows it is traced.
Layers are named after the ``repro`` modules.

A span is ``[name, start, end, parent]`` (``parent`` is the index of the
enclosing span, ``-1`` for a root), kept in memory.  The roots are
``detection.session`` (each ``ingest``/``ingest_columns``/``flush`` call)
and ``archive.query`` (each ``diff``); a span opened outside a root is
dropped, and spans under ``archive.query`` are named with a ``query.``
prefix.  A span's self time is its duration minus the time its children
cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

SESSION_ROOT = "detection.session"
QUERY_ROOT = "archive.query"

#: Every span the instrumentation can record, in report order.
SPANS = (
    SESSION_ROOT,
    "streams.extract",
    "streams.split",
    "detection.dedup",
    "sketch.update",
    "forecast.step",
    "sketch.combine",
    "sketch.f2",
    "detection.key_source",
    "sketch.recover",
    "detection.report",
    "hashing.bucket_indices",
    "sketch.estimate_rows",
    "detection.median",
    "archive.ingest",
    QUERY_ROOT,
)
#: The spans a retrospective ``diff`` can open under its root.
QUERY_SPANS = tuple(
    "query." + name
    for name in (
        "detection.dedup",
        "sketch.combine",
        "sketch.f2",
        "detection.report",
        "hashing.bucket_indices",
        "sketch.estimate_rows",
        "detection.median",
    )
)


class Tracer:
    """In-memory span recorder; :meth:`wrap` turns a callable into a span."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._prefix = ""

    def _open(self, name: str, root: bool):
        stack = self._stack
        if stack:
            name = self._prefix + name
            if self.spans[stack[-1]][0] == name:
                return None  # re-entry (an override calling super())
            parent = stack[-1]
        elif root:
            self._prefix = "query." if name == QUERY_ROOT else ""
            parent = -1
        else:
            return None
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, parent])
        stack.append(idx)
        return idx

    def _run(self, idx, fn, args, kwargs):
        if idx is None:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, *, root: bool = False, keys_arg=None):
        """``fn`` recorded as span ``name``.

        ``keys_arg`` is the positional index of a key array whose length is
        added to the ``<span>.keys`` count.
        """

        def traced(*args, **kwargs):
            idx = self._open(name, root)
            if idx is not None and keys_arg is not None:
                self.counts[self.spans[idx][0] + ".keys"] += len(args[keys_arg])
            return self._run(idx, fn, args, kwargs)

        return traced

    def _parent(self):
        return self.spans[self._stack[-1]] if self._stack else None

    def wrap_unique(self, fn):
        """``numpy.unique`` called directly by a root: split or dedup.

        With ``return_index=True`` it is the session splitting a chunk at
        interval boundaries (``streams.split``); otherwise it deduplicates
        keys (``detection.dedup``).  Deeper calls stay in their caller's span.
        """

        def traced(*args, **kwargs):
            parent = self._parent()
            if parent is None or parent[3] != -1:
                return fn(*args, **kwargs)
            split = kwargs.get("return_index", len(args) > 1 and args[1])
            name = "streams.split" if split else "detection.dedup"
            return self._run(self._open(name, False), fn, args, kwargs)

        return traced

    def wrap_median(self, fn):
        """``numpy.median`` called directly by ``build_interval_report``."""

        def traced(*args, **kwargs):
            parent = self._parent()
            if parent is None or parent[0] != self._prefix + "detection.report":
                return fn(*args, **kwargs)
            return self._run(self._open("detection.median", False), fn, args, kwargs)

        return traced

    # -- reading the trace ----------------------------------------------------

    def self_times(self):
        """``(self_s, calls)`` per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = defaultdict(float), defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write_chrome_trace(self, path) -> None:
        """Write the spans in Chrome's trace-event format (opens in Perfetto)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name, "cat": name.rsplit(".", 1)[0], "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1, "args": {"id": i, "parent": parent},
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo = []

    def set(self, owner, attr, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def methods(self, base, attr, wrap) -> None:
        """Replace ``attr`` on ``base`` and every subclass that defines it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            fn = cls.__dict__.get(attr)
            if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                self.set(cls, attr, wrap(fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


@contextmanager
def instrument(tracer: Tracer):
    """Install every span of :data:`SPANS` for the duration of the block.

    Sessions and archives must be built inside the block: a session keeps
    the archive's bound ``ingest`` it was given at construction.
    """
    import numpy

    import repro.archive.temporal as temporal
    import repro.detection.session as session
    from repro.archive import TemporalArchive
    from repro.detection import StreamingSession
    from repro.forecast import Forecaster
    from repro.sketch import KArySchema, LinearSummary
    from repro.streams.keys import KeyScheme, ValueScheme

    patches = _Patches()

    def span(name, **kw):
        return lambda fn: tracer.wrap(name, fn, **kw)

    try:
        for attr in ("ingest", "ingest_columns", "flush"):
            patches.methods(StreamingSession, attr, span(SESSION_ROOT, root=True))
        patches.methods(TemporalArchive, "diff", span(QUERY_ROOT, root=True))
        patches.methods(TemporalArchive, "ingest", span("archive.ingest"))
        patches.methods(KeyScheme, "extract", span("streams.extract"))
        patches.methods(ValueScheme, "extract", span("streams.extract"))
        patches.methods(LinearSummary, "update_batch", span("sketch.update", keys_arg=1))
        patches.methods(Forecaster, "step_into", span("forecast.step"))
        for attr in ("combine_into", "_linear_combination"):
            patches.methods(LinearSummary, attr, span("sketch.combine"))
        patches.methods(LinearSummary, "l2_norm", span("sketch.f2"))
        patches.methods(LinearSummary, "recover_candidates", span("sketch.recover"))
        patches.methods(LinearSummary, "estimate_rows", span("sketch.estimate_rows"))
        patches.methods(KArySchema, "bucket_indices", span("hashing.bucket_indices"))
        patches.set(
            session, "resolve_key_source",
            tracer.wrap("detection.key_source", session.resolve_key_source),
        )
        for module in (session, temporal):
            patches.set(
                module, "build_interval_report",
                tracer.wrap("detection.report", module.build_interval_report),
            )
        patches.set(numpy, "unique", tracer.wrap_unique(numpy.unique))
        patches.set(numpy, "median", tracer.wrap_median(numpy.median))
        yield tracer
    finally:
        patches.restore()
