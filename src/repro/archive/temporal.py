"""Multi-resolution temporal archive of sealed interval sketches.

The live pipeline (Sections 2-4 of the paper) answers "did the traffic
change *now*?" and then discards each interval's sketch as soon as the
forecast model has consumed it.  Operators, however, ask retrospective
questions -- "was this host already ramping up last Tuesday?", "compare
this morning's mix against the same window yesterday" -- which need the
sealed summaries *kept*, under a bounded memory footprint.

:class:`TemporalArchive` keeps them the way Hokusai (Matusevych, Smola &
Ahmed, UAI 2012) does, by exploiting the same linearity that makes
COMBINE work:

* **Time aggregation** -- adjacent spans of equal length merge via a
  unit-coefficient COMBINE into a span of twice the width in time.  The
  merged summary is exactly the sketch of the concatenated streams.
* **Item aggregation** -- a span's summary halves its bucket width via
  :func:`~repro.sketch.mergeable.fold_width`; the folded table is
  exactly what the half-width schema would have built, at roughly twice
  the estimation variance.

Recent intervals stay at full resolution (one span per interval, keys
retained, so live detection reports can be reproduced bit-identically);
older spans are compacted along both axes until the archive fits its
byte budget.  Every span remains a linear summary over a known schema,
so the full query machinery -- ESTIMATE, ESTIMATEF2, the
``T * sqrt(F2)`` alarm threshold, hierarchical drill-down -- applies to
any time range the archive covers.

Thread-safety: none.  The session calls the sink inline in its seal, so
run queries from the thread that drives the session.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.detection.session import IntervalSealer
from repro.detection.threshold import IntervalDetection, build_interval_report
from repro.forecast.base import Forecaster
from repro.forecast.model_zoo import make_forecaster
from repro.obs.recorder import NULL_RECORDER
from repro.sketch.base import LinearSummary, SummaryConvention
from repro.sketch.mergeable import combine, fold_width, half_width_schema, merge
from repro.sketch.serialization import (
    _write_durably,
    dumps,
    dumps_checkpoint,
    loads,
    loads_checkpoint,
    schema_from_identity,
    schema_identity,
)
from repro.streams.intervals import checked_index, interval_index
from repro.streams.keys import dedup_keys

_FORMAT = "temporal-archive"
_VERSION = 1

#: Counter series preregistered at zero when a real recorder attaches.
_ARCHIVE_COUNTERS = (
    "repro_archive_intervals_ingested_total",
    "repro_archive_keys_dropped_total",
)
_COMPACTION_AXES = ("time", "item")


@dataclass
class ArchiveSpan:
    """One archived span: ``length`` consecutive intervals in one summary.

    ``folds`` counts the width halvings applied (0 = native width).
    ``keys`` holds the span's observed key set (sorted, deduplicated)
    while the span is still at full resolution; compaction drops it.
    """

    start: int
    length: int
    folds: int
    summary: LinearSummary
    keys: Optional[np.ndarray]

    @property
    def end(self) -> int:
        """One past the last interval index the span covers."""
        return self.start + self.length

    @property
    def nbytes(self) -> int:
        """Resident bytes: counter table plus retained keys."""
        n = int(np.asarray(self.summary.table).nbytes)
        if self.keys is not None:
            n += int(self.keys.nbytes)
        return n


class TemporalArchive:
    """Byte-budgeted multi-resolution store of sealed interval summaries.

    Parameters
    ----------
    schema:
        Schema of the sealed summaries fed to :meth:`ingest`.  Must carry
        an explicit seed: folding rebuilds half-width schemas and
        persistence re-derives hash functions, neither of which is
        possible for entropy-seeded schemas.
    interval_seconds:
        The session's analysis interval length (time queries divide by
        it to find interval indices).
    byte_budget:
        Resident-size ceiling in bytes; crossing it triggers compaction
        on ingest.  ``None`` disables automatic compaction (call
        :meth:`compact_once` manually).
    max_folds:
        Width-halving ceiling per span.  The tier schedule folds a span
        of ``2**j`` intervals ``min(j, max_folds)`` times, so resolution
        degrades with age but never below ``width / 2**max_folds``.
    tail_intervals:
        The newest ``tail_intervals`` intervals are never compacted --
        this is the full-resolution tail over which retrospective
        queries reproduce live detection exactly.
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder` for
        compaction/residency metrics.  Execution state only: queries
        and archived counters are identical with or without one.

    Attach to a session with ``StreamingSession(..., sink=archive.ingest)``.
    """

    def __init__(
        self,
        schema,
        interval_seconds: float = 300.0,
        *,
        byte_budget: Optional[int] = None,
        max_folds: int = 3,
        tail_intervals: int = 8,
        recorder=None,
    ) -> None:
        if getattr(schema, "seed", None) is None:
            raise ValueError(
                "TemporalArchive requires a schema with an explicit seed: "
                "folding and persistence must re-derive its hash functions"
            )
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        if byte_budget is not None and byte_budget <= 0:
            raise ValueError(f"byte_budget must be > 0, got {byte_budget}")
        if max_folds < 0:
            raise ValueError(f"max_folds must be >= 0, got {max_folds}")
        if max_folds and (
            schema.width % (1 << max_folds)
            or (schema.width >> max_folds) < 2
        ):
            raise ValueError(
                f"width {schema.width} cannot fold {max_folds} times "
                f"(needs divisibility by {1 << max_folds} and >= 2 buckets left)"
            )
        if tail_intervals < 1:
            raise ValueError(
                f"tail_intervals must be >= 1, got {tail_intervals}"
            )
        self.schema = schema
        self.interval_seconds = float(interval_seconds)
        self.byte_budget = None if byte_budget is None else int(byte_budget)
        self.max_folds = int(max_folds)
        self.tail_intervals = int(tail_intervals)
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._spans: List[ArchiveSpan] = []
        # _schemas[f] is the schema after f folds; built lazily because
        # each half-width tabulation schema costs megabytes of tables.
        self._schemas: List = [schema]
        self._stats = {
            "intervals_ingested": 0,
            "time_compactions": 0,
            "item_compactions": 0,
            "keys_dropped": 0,
        }
        self._preregister_obs()

    # -- observability -------------------------------------------------------

    def _preregister_obs(self) -> None:
        obs = self.recorder
        obs.preregister(*_ARCHIVE_COUNTERS)
        obs.preregister_labelled(
            "repro_archive_compactions_total", "axis", _COMPACTION_AXES
        )
        if obs.enabled:
            obs.gauge("repro_archive_bytes", self.nbytes)
            obs.gauge("repro_archive_spans", len(self._spans))
            obs.gauge("repro_archive_over_budget", 0)

    def attach_recorder(self, recorder) -> None:
        """Attach (or replace, or with ``None`` detach) the recorder."""
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._preregister_obs()

    def _record_residency(self) -> None:
        obs = self.recorder
        if not obs.enabled:
            return
        nbytes = self.nbytes
        obs.gauge("repro_archive_bytes", nbytes)
        obs.gauge("repro_archive_spans", len(self._spans))
        if self._spans:
            obs.gauge("repro_archive_max_folds", self._spans[0].folds)
        obs.gauge(
            "repro_archive_over_budget",
            int(self.byte_budget is not None and nbytes > self.byte_budget),
        )

    # -- introspection -------------------------------------------------------

    @property
    def spans(self) -> Tuple[ArchiveSpan, ...]:
        """The archived spans, oldest first (treat as read-only)."""
        return tuple(self._spans)

    @property
    def nbytes(self) -> int:
        """Total resident bytes across all spans."""
        return sum(span.nbytes for span in self._spans)

    @property
    def coverage(self) -> Optional[Tuple[int, int]]:
        """``(first, last_exclusive)`` interval-index range, or ``None``."""
        if not self._spans:
            return None
        return self._spans[0].start, self._spans[-1].end

    @property
    def stats(self) -> dict:
        """Compaction and residency counters."""
        return {**self._stats, "spans": len(self._spans), "bytes": self.nbytes}

    def index_of(self, timestamp: float) -> int:
        """Interval index containing ``timestamp`` (seconds, origin 0).

        Uses the sessions' and slicers' interval edges
        (:func:`~repro.streams.intervals.interval_index`); a NaN or
        infinite timestamp raises ``ValueError``.
        """
        timestamp = float(timestamp)
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp must be finite, got {timestamp}")
        return interval_index(timestamp, self.interval_seconds)

    def _schema_at(self, folds: int):
        while len(self._schemas) <= folds:
            self._schemas.append(half_width_schema(self._schemas[-1]))
        return self._schemas[folds]

    # -- ingest --------------------------------------------------------------

    def ingest(self, observed, keys, index: int) -> None:
        """Archive one sealed interval (the session ``sink`` signature).

        ``observed`` is copied (the forecaster retains the original in
        its model state); ``keys`` (the interval's deduplicated key set,
        or ``None``) is copied too.  Intervals must arrive in strictly
        increasing index order -- exactly what a session seal stream
        delivers.  When a byte budget is set, crossing it compacts
        oldest-first until the archive fits (or no legal compaction
        remains, which the over-budget gauge surfaces).
        """
        if observed.schema != self.schema:
            raise ValueError(
                "sealed summary schema does not match the archive schema"
            )
        index = int(index)
        if self._spans and index < self._spans[-1].end:
            raise ValueError(
                f"interval {index} predates archived coverage "
                f"(next ingestable index is {self._spans[-1].end})"
            )
        stored_keys = (
            None if keys is None else np.array(keys, dtype=np.uint64, copy=True)
        )
        self._spans.append(
            ArchiveSpan(
                start=index, length=1, folds=0,
                summary=observed.copy(), keys=stored_keys,
            )
        )
        self._stats["intervals_ingested"] += 1
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_archive_intervals_ingested_total")
        if self.byte_budget is not None:
            self.compact()
        self._record_residency()

    # -- compaction ----------------------------------------------------------

    def _tier_folds(self, length: int) -> int:
        """Target fold count for a span of ``length = 2**j`` intervals."""
        return min(self.max_folds, max(0, int(length).bit_length() - 1))

    def _fold_span_to(self, span: ArchiveSpan, folds: int) -> ArchiveSpan:
        summary = span.summary
        for f in range(span.folds, folds):
            summary = fold_width(summary, schema=self._schema_at(f + 1))
        return ArchiveSpan(
            start=span.start, length=span.length, folds=folds,
            summary=summary, keys=None,
        )

    def _drop_keys(self, *spans: ArchiveSpan) -> None:
        dropped = sum(len(s.keys) for s in spans if s.keys is not None)
        if dropped:
            self._stats["keys_dropped"] += dropped
            if self.recorder.enabled:
                self.recorder.count(
                    "repro_archive_keys_dropped_total", dropped
                )

    def compact_once(self) -> bool:
        """Apply the single highest-priority compaction step.

        Only spans entirely older than the protected tail are eligible.
        Preference order:

        1. **Time aggregation**: merge the oldest adjacent contiguous
           pair of equal-length spans (both brought to the merged tier's
           fold count first -- fold commutes with COMBINE, so the result
           equals folding after merging).
        2. **Item aggregation**: fold the oldest span still above its
           width floor.

        Returns ``False`` when nothing is eligible (archive already at
        maximum compaction, or everything is inside the tail).
        """
        if not self._spans:
            return False
        horizon = self._spans[-1].end - self.tail_intervals
        # Rightmost span index whose coverage ends at or before the horizon.
        last = -1
        for i, span in enumerate(self._spans):
            if span.end <= horizon:
                last = i
            else:
                break

        for i in range(last):
            a, b = self._spans[i], self._spans[i + 1]
            if a.length == b.length and a.end == b.start:
                folds = max(
                    a.folds, b.folds, self._tier_folds(2 * a.length)
                )
                self._drop_keys(a, b)
                a = self._fold_span_to(a, folds)
                b = self._fold_span_to(b, folds)
                merged = ArchiveSpan(
                    start=a.start, length=2 * a.length, folds=folds,
                    summary=merge([a.summary, b.summary]), keys=None,
                )
                self._spans[i : i + 2] = [merged]
                self._stats["time_compactions"] += 1
                if self.recorder.enabled:
                    self.recorder.count(
                        "repro_archive_compactions_total", axis="time"
                    )
                return True

        for i in range(last + 1):
            span = self._spans[i]
            if span.folds < self.max_folds:
                self._drop_keys(span)
                self._spans[i] = self._fold_span_to(span, span.folds + 1)
                self._stats["item_compactions"] += 1
                if self.recorder.enabled:
                    self.recorder.count(
                        "repro_archive_compactions_total", axis="item"
                    )
                return True
        return False

    def compact(self) -> int:
        """Compact until under the byte budget; returns steps applied."""
        if self.byte_budget is None:
            return 0
        steps = 0
        while self.nbytes > self.byte_budget:
            if not self.compact_once():
                break
            steps += 1
        return steps

    # -- queries -------------------------------------------------------------

    def _select(self, lo: int, hi: int) -> List[ArchiveSpan]:
        lo = checked_index(lo, "range start")
        hi = checked_index(hi, "range end")
        if hi <= lo:
            raise ValueError(f"empty interval range [{lo}, {hi})")
        picked = [s for s in self._spans if s.start < hi and s.end > lo]
        if not picked:
            cov = self.coverage
            raise ValueError(
                f"interval range [{lo}, {hi}) is outside archived "
                f"coverage {cov}"
            )
        return picked

    def range_summary(
        self, lo: int, hi: int
    ) -> Tuple[LinearSummary, int, int]:
        """COMBINE all spans overlapping interval range ``[lo, hi)``.

        Spans are archived whole, so the query snaps *outward* to span
        boundaries; the actual range covered is returned alongside the
        merged summary.  Mixed-resolution spans are folded to the
        coarsest width present before merging (fold commutes with
        COMBINE, so this loses nothing the coarse span had not already
        lost).

        Returns ``(summary, actual_lo, actual_hi)``.  Bounds must be
        integers: anything else (``0.5``, ``"3"``, ``True``) raises
        ``ValueError`` instead of being truncated.
        """
        picked = self._select(lo, hi)
        folds = max(s.folds for s in picked)
        summaries = [self._fold_span_to(s, folds).summary for s in picked]
        return merge(summaries), picked[0].start, picked[-1].end

    def estimate(self, key: int, t0: float, t1: float) -> float:
        """Estimated total update volume for ``key`` over ``[t0, t1)`` seconds.

        The range snaps outward to archived span boundaries (use
        :meth:`snap` to see what was actually covered); each span
        contributes its own-resolution estimate, summed.
        """
        lo, hi = self.index_of(t0), self.index_of(t1 - 1e-9) + 1
        key_arr = SummaryConvention.as_key_array([key])
        return float(
            sum(
                float(s.summary.estimate_batch(key_arr)[0])
                for s in self._select(lo, hi)
            )
        )

    def snap(self, t0: float, t1: float) -> Tuple[int, int]:
        """The interval-index range a time query actually covers."""
        lo, hi = self.index_of(t0), self.index_of(t1 - 1e-9) + 1
        picked = self._select(lo, hi)
        return picked[0].start, picked[-1].end

    def _range_keys(self, picked: Sequence[ArchiveSpan]) -> np.ndarray:
        chunks = [s.keys for s in picked if s.keys is not None]
        if len(chunks) != len(picked):
            raise ValueError(
                "candidate keys were compacted away for part of the "
                "queried range; pass keys= explicitly (or query inside "
                "the full-resolution tail)"
            )
        return (
            dedup_keys(np.concatenate(chunks))
            if chunks
            else np.array([], dtype=np.uint64)
        )

    def diff(
        self,
        range_a: Tuple[int, int],
        range_b: Tuple[int, int],
        *,
        t_fraction: float = 0.05,
        top_n: int = 0,
        keys: Optional[np.ndarray] = None,
    ) -> "ArchiveDiff":
        """Retrospective change query: range ``a`` versus baseline ``b``.

        Both ranges are interval-index ranges ``(lo, hi)`` of integers
        (half-open; convert times with :meth:`index_of`).  The error
        summary is

            ``Se = S_a - (n_a / n_b) * S_b``

        -- the baseline is rate-normalized when the ranges cover a
        different number of intervals, and for equal-length ranges this
        is exactly the live detector's ``So(t) - Sf(t)`` shape.  The
        error then runs through the standard threshold machinery
        (:func:`~repro.detection.threshold.build_interval_report`) with
        alarm threshold ``t_fraction * sqrt(ESTIMATEF2(Se))``.

        ``keys`` defaults to the stored key sets of range ``a`` (the
        "current" side, matching the live session's candidate source);
        that requires range ``a`` to lie in the full-resolution tail --
        pass candidates explicitly to query compacted history.  Explicit
        keys must be a 1-D sequence or array of integers in
        ``[0, 2**64)``, in any order and with repeats; anything else
        raises ``ValueError`` before any summary is touched.

        Over adjacent single-interval full-resolution spans with a
        moving-average(1) live model this reproduces the live session's
        report bit-identically: stored tables are exact copies, both
        paths compute the error with the same fused COMBINE, and the
        candidate key sets are the same arrays.
        """
        if keys is not None:
            keys = dedup_keys(SummaryConvention.as_key_array(keys))
        summary_a, lo_a, hi_a = self.range_summary(*range_a)
        summary_b, lo_b, hi_b = self.range_summary(*range_b)
        folds = max(
            self._fold_count(summary_a), self._fold_count(summary_b)
        )
        summary_a = self._fold_summary_to(summary_a, folds)
        summary_b = self._fold_summary_to(summary_b, folds)
        n_a, n_b = hi_a - lo_a, hi_b - lo_b
        scale = n_a / n_b
        error = combine([1.0, -scale], [summary_a, summary_b])
        if keys is None:
            keys = self._range_keys(self._select(lo_a, hi_a))
        report = build_interval_report(
            error,
            keys,
            interval=lo_a,
            t_fraction=t_fraction,
            top_n=top_n,
            schema=error.schema,
        )
        return ArchiveDiff(
            report=report,
            error=error,
            keys=keys,
            range_a=(lo_a, hi_a),
            range_b=(lo_b, hi_b),
            scale=scale,
        )

    def _fold_count(self, summary) -> int:
        width = summary.schema.width
        folds = 0
        while width < self.schema.width:
            width *= 2
            folds += 1
        return folds

    def _fold_summary_to(self, summary, folds: int):
        while self._fold_count(summary) < folds:
            summary = fold_width(
                summary, schema=self._schema_at(self._fold_count(summary) + 1)
            )
        return summary

    def drilldown(
        self,
        range_a: Tuple[int, int],
        range_b: Tuple[int, int],
        *,
        t_fraction: float = 0.05,
        levels: Sequence[int] = (8, 16, 24, 32),
        keys: Optional[np.ndarray] = None,
    ):
        """Post-alarm forensics: attribute a retrospective diff to prefixes.

        Runs :meth:`diff`, then hands the candidate keys' estimated
        errors to
        :func:`~repro.detection.drilldown.attribute_key_errors`,
        producing the hierarchical prefix attribution the live
        drill-down emits -- keys must therefore be 32-bit ``dst_ip``
        hosts.  Returns ``(diff, drilldown_report)``.
        """
        from repro.detection.drilldown import attribute_key_errors

        result = self.diff(
            range_a, range_b, t_fraction=t_fraction, keys=keys
        )
        if len(result.keys):
            errors = result.error.estimate_batch(result.keys)
        else:
            errors = np.array([], dtype=np.float64)
        report = attribute_key_errors(
            result.keys,
            errors,
            threshold=result.report.threshold,
            levels=levels,
            interval=result.range_a[0],
        )
        return result, report

    def replay(
        self,
        forecaster: Union[Forecaster, str] = "ma",
        *,
        t_fraction: float = 0.05,
        top_n: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
        **model_params,
    ) -> List[IntervalDetection]:
        """Re-run live detection over the archive's full-resolution tail.

        Steps a fresh forecaster over the stored single-interval spans in
        ``[lo, hi)`` (default: every full-resolution span) and rebuilds
        each interval's report with the stored candidate keys -- the same
        :class:`~repro.detection.session.IntervalSealer` the session
        seals with live, so with matching model and parameters the
        reports are bit-identical to the live run's.
        Raises if the requested range includes compacted spans (their
        unit intervals are gone; replay cannot cross a compaction).
        """
        if isinstance(forecaster, str):
            forecaster = make_forecaster(forecaster, **model_params)
        elif model_params:
            raise ValueError(
                "model_params only apply when forecaster is given by name"
            )
        sealer = IntervalSealer(
            self.schema, forecaster, t_fraction=t_fraction, top_n=top_n
        )
        reports: List[IntervalDetection] = []
        for span in self._spans:
            if lo is not None and span.start < lo:
                continue
            if hi is not None and span.end > hi:
                break
            if span.length != 1 or span.folds != 0:
                if lo is None and hi is None:
                    continue
                raise ValueError(
                    f"span [{span.start}, {span.end}) was compacted; "
                    "replay only runs over full-resolution spans"
                )
            keys = (
                span.keys
                if span.keys is not None
                else np.array([], dtype=np.uint64)
            )
            # The seal writes Se over what it is given; the span keeps So.
            report = sealer.seal(span.summary.copy(), keys, span.start)
            if report is not None:
                reports.append(report)
        return reports

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Atomically write the archive as a KCP1 container."""
        save_archive(self, path)


@dataclass
class ArchiveDiff:
    """Result of :meth:`TemporalArchive.diff`.

    ``report`` is the thresholded detection report; ``error`` the full
    error summary (for follow-up estimates or drill-down); ``range_a`` /
    ``range_b`` the snapped interval ranges actually compared; ``scale``
    the rate-normalization coefficient applied to the baseline.
    """

    report: IntervalDetection
    error: LinearSummary
    keys: np.ndarray
    range_a: Tuple[int, int]
    range_b: Tuple[int, int]
    scale: float


def save_archive(archive: TemporalArchive, path) -> None:
    """Serialize an archive to ``path`` (atomic: tmp file + rename).

    Span summaries are embedded as raw serialized-sketch blobs (not the
    codec's summary tag) because spans sit at *different* widths -- each
    blob carries its own schema identity and is re-attached to the right
    folded schema at load.
    """
    meta = {
        "format": _FORMAT,
        "version": _VERSION,
        "schema": schema_identity(archive.schema),
        "interval_seconds": archive.interval_seconds,
        "byte_budget": archive.byte_budget,
        "max_folds": archive.max_folds,
        "tail_intervals": archive.tail_intervals,
        "spans": len(archive.spans),
    }
    body = {
        "stats": {k: int(v) for k, v in archive._stats.items()},
        "spans": [
            {
                "start": span.start,
                "length": span.length,
                "folds": span.folds,
                "blob": dumps(span.summary),
                "keys": span.keys,
            }
            for span in archive.spans
        ],
    }
    blob = dumps_checkpoint(meta, body)
    path = os.fspath(path)
    _write_durably(path, blob)
    obs = archive.recorder
    if obs.enabled:
        obs.event(
            "archive_saved", path=path, bytes=len(blob),
            spans=len(archive.spans),
        )


def load_archive(
    path, schema=None, recorder=None
) -> TemporalArchive:
    """Rebuild a :func:`save_archive` file into a live archive.

    ``schema``, when provided, is verified against the stored identity
    (and reused, skipping the hash-table rebuild); otherwise the schema
    is re-derived from the stored seed.  Folded span schemas are rebuilt
    once per fold level and shared across spans.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    meta, body = loads_checkpoint(data)
    if meta.get("format") != _FORMAT:
        raise ValueError(
            f"not a temporal-archive checkpoint (format={meta.get('format')!r})"
        )
    if meta.get("version") != _VERSION:
        raise ValueError(
            f"unsupported temporal-archive version {meta.get('version')}"
        )
    schema = schema_from_identity(meta["schema"], schema)
    archive = TemporalArchive(
        schema,
        meta["interval_seconds"],
        byte_budget=meta["byte_budget"],
        max_folds=meta["max_folds"],
        tail_intervals=meta["tail_intervals"],
        recorder=recorder,
    )
    for entry in body["spans"]:
        folds = int(entry["folds"])
        summary = loads(entry["blob"], schema=archive._schema_at(folds))
        keys = entry["keys"]
        archive._spans.append(
            ArchiveSpan(
                start=int(entry["start"]),
                length=int(entry["length"]),
                folds=folds,
                summary=summary,
                keys=None if keys is None else np.asarray(keys, dtype=np.uint64),
            )
        )
    for key, value in body.get("stats", {}).items():
        if key in archive._stats:
            archive._stats[key] = int(value)
    archive._record_residency()
    return archive
