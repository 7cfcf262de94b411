"""Streaming ingestion session: live change detection over record chunks.

The batch pipelines in this package consume whole traces.  A deployed
monitor instead receives flow records continuously, in arbitrary chunks
whose boundaries have nothing to do with analysis intervals.
:class:`StreamingSession` bridges that gap:

* records are ingested in any chunk sizes (within a chunk they may be
  unsorted; chunks themselves must not go backwards in time past an
  already-closed interval -- the tolerance is configurable), and each
  chunk is vetted whole, so a rejected one changes nothing;
* whenever ingestion crosses an interval boundary, the finished
  interval's sketch is sealed, stepped through the forecast model, and a
  detection report is emitted;
* candidate keys come from the sealed interval itself (the data is in
  hand by the time the interval closes, so unlike the strict one-pass
  :class:`~repro.detection.online.OnlineDetector` there is no missed-key
  risk and no one-interval latency).

This is the "near real-time change detection" operating mode the paper's
Section 6 argues the technique is capable of.

:class:`IntervalSealer` is the seal step itself -- forecast, candidate
keys, alarm rule, observability -- shared by every driver in the package
(the session, the two-pass and online detectors, the coordinator, archive
replay).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.detection.keysource import (
    CANDIDATES_COUNTER,
    KEY_SOURCES,
    resolve_key_source,
)
from repro.detection.threshold import IntervalDetection, build_interval_report
from repro.forecast.base import Forecaster
from repro.forecast.model_zoo import make_forecaster
from repro.hashing import family_key_bits
from repro.hashing._kernels import (
    KERNEL_NAMES,
    kernel_call_counts,
    kernel_seconds,
    kernel_thread_count,
)
from repro.obs.recorder import NULL_RECORDER
from repro.sketch.base import SummaryConvention
from repro.streams.intervals import (
    _cut_into_intervals,
    checked_index,
    interval_index,
)
from repro.streams.keys import KeyScheme, ValueScheme, make_key_scheme, make_value_scheme

#: Records the open interval holds before folding them into its sketch:
#: 65,536 keys plus values are 1 MiB of columns, so the buffer's memory is
#: bounded however many records an interval carries.
_BUFFER_CAP = 65_536

#: Detection counters the seal step owns, created at zero whenever a real
#: recorder attaches, so a metrics export always carries the full set --
#: "nothing alarmed yet" stays distinguishable from "not instrumented".
_SEAL_COUNTERS = (
    "repro_intervals_sealed_total",
    "repro_detect_candidates_total",
    "repro_detect_median_evaluated_total",
    "repro_alarms_total",
)


class IntervalSealer:
    """The one seal step: ``Se(t)``, candidate keys, alarms (paper §3.3).

    :meth:`seal` takes one closed interval as ``(observed, keys, index)``
    -- the observed summary ``So(t)``, the keys the driver collected (empty
    for recovering key sources) and the interval index -- steps the
    forecaster, which writes ``Se(t)`` over ``observed`` where it can
    (:meth:`~repro.forecast.base.Forecaster.step_into`), and hands the
    error to :meth:`report`.  :meth:`report` is the second half on its
    own, for drivers that step their forecaster themselves: resolve
    the candidate keys through ``key_source``, raise alarms on
    ``|ESTIMATE| >= T * sqrt(ESTIMATEF2(Se))`` and rank the top-N
    (:func:`~repro.detection.threshold.build_interval_report`), then
    record the outcome on the recorder.

    Single-writer: the forecaster and :attr:`stats` are touched only
    here, and every driver runs one seal at a time.
    ``forecaster`` may be ``None`` for report-only use.
    """

    def __init__(
        self,
        schema,
        forecaster: Optional[Forecaster] = None,
        *,
        t_fraction: Optional[float],
        top_n: int = 0,
        key_source: str = "twopass",
        recorder=None,
    ) -> None:
        self.schema = schema
        self.forecaster = forecaster
        self.t_fraction = t_fraction
        self.top_n = int(top_n)
        self.key_source = key_source
        #: ``candidates`` handed to the report builder and
        #: ``median_evaluated`` keys that paid the H-way median (the gap
        #: is what the exact prescreen excluded).
        self.stats = {"candidates": 0, "median_evaluated": 0}
        self.attach_recorder(recorder)

    def attach_recorder(self, recorder) -> None:
        """Attach (or with ``None`` detach) the recorder; pre-creates series."""
        self.recorder = obs = NULL_RECORDER if recorder is None else recorder
        obs.preregister(*_SEAL_COUNTERS)
        obs.preregister_labelled("repro_kernel_calls_total", "kernel", KERNEL_NAMES)
        obs.preregister_labelled("repro_kernel_seconds", "kernel", KERNEL_NAMES)
        obs.preregister_labelled(CANDIDATES_COUNTER, "source", KEY_SOURCES)
        obs.preregister_stage("recover")
        if obs.enabled:
            obs.gauge("repro_kernel_threads", kernel_thread_count())

    def seal(
        self, observed, keys: np.ndarray, index: int
    ) -> Optional[IntervalDetection]:
        """Step the forecast over one closed interval and report it.

        Consumes ``observed``: the step may write ``Se(t)`` over it, so a
        driver that keeps ``So(t)`` seals a copy.  Returns ``None`` for
        warm-up intervals (no forecast yet); those still count as sealed.
        """
        obs = self.recorder
        with obs.time("forecast_step"):
            error = self.forecaster.step_into(observed)
        obs.count("repro_intervals_sealed_total")
        if error is None:
            if obs.enabled:
                obs.event(
                    "interval_sealed", interval=index,
                    warmup=True, candidates=int(len(keys)),
                )
            return None
        return self.report(error, keys, index)

    def report(self, error, keys: np.ndarray, index: int) -> IntervalDetection:
        """Threshold and rank one interval's error summary ``Se(t)``.

        ESTIMATEF2 runs once: the key source's bucket cutoff and the
        report's threshold both read this one ``l2_norm``.
        """
        obs = self.recorder
        recorder = obs if obs.enabled else None
        with obs.time("f2_threshold"):
            l2 = error.l2_norm()
        keys = resolve_key_source(
            self.key_source,
            error,
            t_fraction=self.t_fraction,
            collected=keys,
            recorder=recorder,
            error_l2=l2,
        )
        evaluated_before = self.stats["median_evaluated"]
        with obs.time("report_build"):
            report = build_interval_report(
                error,
                keys,
                interval=index,
                t_fraction=self.t_fraction,
                top_n=self.top_n,
                schema=self.schema,
                stats=self.stats,
                recorder=recorder,
                error_l2=l2,
            )
        if recorder is not None:
            self._record(report, len(keys), evaluated_before)
        return report

    def _record(
        self, report: IntervalDetection, n_candidates: int, evaluated_before: int
    ) -> None:
        """Feed one reported interval's outcome to the attached recorder."""
        obs = self.recorder
        obs.count("repro_detect_candidates_total", n_candidates)
        obs.count(
            "repro_detect_median_evaluated_total",
            self.stats["median_evaluated"] - evaluated_before,
        )
        if report.alarm_count:
            obs.count("repro_alarms_total", report.alarm_count)
        obs.gauge("repro_interval_index", report.index)
        for kernel, calls in kernel_call_counts().items():
            if calls:
                obs.sync_counter("repro_kernel_calls_total", calls, kernel=kernel)
        for kernel, secs in kernel_seconds().items():
            if secs:
                obs.sync_counter("repro_kernel_seconds", secs, kernel=kernel)
        obs.gauge("repro_kernel_threads", kernel_thread_count())
        obs.event(
            "interval_sealed", interval=report.index,
            alarms=report.alarm_count, candidates=n_candidates,
            error_l2=report.error_l2, threshold=report.threshold,
        )
        if report.alarm_count:
            obs.event(
                "alarm_raised", interval=report.index,
                count=report.alarm_count,
                top_keys=[a.key for a in report.alarms[:5]],
            )


def _merge_distinct(merged: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The sorted union of two sorted arrays of distinct keys.

    Binary-searches ``new`` in ``merged`` and inserts the keys not found,
    so the cost is linear in ``len(merged)``, with no re-sort.
    """
    at = np.searchsorted(merged, new)
    found = merged[np.minimum(at, len(merged) - 1)] == new
    return np.insert(merged, at[~found], new[~found])


class _OpenInterval:
    """The open interval: its sketch, buffered records and flushed keys.

    Records are buffered as owned ``(keys, values)`` arrays and folded into
    the sketch by one UPDATE over their concatenation -- then, when keys
    are collected, one ``np.unique`` over the flushed keys -- once the
    buffer holds :data:`_BUFFER_CAP` records or the interval closes.  Each
    flush's distinct keys are merged into the interval's key set, one
    sorted array of distinct keys, without re-sorting it; so the key set's
    memory is bounded by the interval's distinct keys, not its records.
    UPDATE is a per-row, stream-order scatter, so the counters do not
    depend on where flushes fall.  The invertible sketch aggregates votes
    per UPDATE batch, so its candidate planes do: with one flush per
    interval they equal ``schema.from_items`` over the interval.
    """

    __slots__ = ("sketch", "collect_keys", "unique_keys", "buffer", "buffered")

    def __init__(self, sketch, collect_keys: bool) -> None:
        self.sketch = sketch
        self.collect_keys = collect_keys
        #: Every flushed key once, sorted (empty unless collecting).
        self.unique_keys = np.array([], dtype=np.uint64)
        self.buffer: List[Tuple[np.ndarray, np.ndarray]] = []
        self.buffered = 0

    def add(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Buffer one batch the interval owns; flush at the cap."""
        self.buffer.append((keys, values))
        self.buffered += len(keys)
        if self.buffered >= _BUFFER_CAP:
            self.flush()

    def pending(self) -> Tuple[np.ndarray, np.ndarray]:
        """The unflushed records as one ``(keys, values)`` pair."""
        if len(self.buffer) == 1:
            return self.buffer[0]
        if not self.buffer:
            return np.array([], dtype=np.uint64), np.array([], dtype=np.float64)
        return (
            np.concatenate([k for k, _ in self.buffer]),
            np.concatenate([v for _, v in self.buffer]),
        )

    def flush(self) -> None:
        """Fold the buffer into the sketch: one UPDATE, one dedup."""
        if not self.buffer:
            return
        keys, values = self.pending()
        # UPDATE validates (e.g. key width) before writing; on an error the
        # records stay buffered and the sketch untouched.
        self.sketch.update_batch(keys, values)
        self.buffer, self.buffered = [], 0
        if self.collect_keys:
            # Not dedup_keys: the e2e tracer times detection.dedup via np.unique.
            keys = np.unique(keys)
            if len(self.unique_keys):
                keys = _merge_distinct(self.unique_keys, keys)
            self.unique_keys = keys

    def collect(self):
        """Flush and return ``(observed_summary, unique_keys)``."""
        self.flush()
        return self.sketch, self.unique_keys


class StreamingSession:
    """Incremental sketch-based change detection over live record chunks.

    Parameters
    ----------
    schema:
        k-ary schema for the per-interval sketches.
    forecaster:
        Forecaster instance or registry name (+ ``model_params``).
    interval_seconds:
        Analysis interval length.
    key_scheme / value_scheme:
        How records become Turnstile items (defaults: the paper's
        ``dst_ip`` / ``bytes``).
    t_fraction:
        Alarm threshold parameter ``T``.
    top_n:
        Report the top-N changed keys per interval (0 disables).
    lateness_tolerance:
        Records older than the current open interval by more than this
        many seconds are rejected (default 0: anything belonging to an
        already-sealed interval is an error -- sealing is irrevocable).
    key_source:
        Where each sealed interval's candidate keys come from (see
        :mod:`~repro.detection.keysource`).  ``"twopass"`` (default)
        collects the interval's own keys during ingestion -- reports
        unchanged.  ``"invertible"`` / ``"grouptesting"`` recover
        candidates from the sealed error summary, skipping key
        deduplication entirely (the schema must produce the matching
        summary type).  Checkpointed with the session config.
    sink:
        Optional callable ``sink(observed, keys, index)`` invoked for
        every sealed interval *before* the forecast step consumes the
        observed summary -- the attachment point for the temporal
        archive (pass ``archive.ingest``).  The sink receives the live
        summary object and collected key array by reference and must
        not mutate them; it must copy what it keeps, because once it
        returns the seal overwrites ``observed`` with ``Se(t)`` (or the
        forecaster retains it in its model state).  Runs inline in the seal,
        strictly in interval order.  ``keys`` is the interval's
        deduplicated key set under ``key_source="twopass"`` and empty
        for recovery key sources.  An execution attachment, not result
        state: reports are identical with or without one, and
        checkpoints never carry it.
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder`.  When
        attached, the session reports stage timings (ingest, seal,
        forecast step, report build, hashing, F2/threshold),
        counters (records, sealed intervals, candidates,
        median-evaluated, alarms), kernel gauges, and
        ``interval_sealed`` / ``alarm_raised`` trace events.  The
        default is the shared allocation-free
        :class:`~repro.obs.recorder.NullRecorder` -- an execution
        observer, never result state: reports are bit-identical with or
        without a recorder, and checkpoints never carry one.
    """

    def __init__(
        self,
        schema,
        forecaster: Union[Forecaster, str],
        interval_seconds: float = 300.0,
        key_scheme: Union[KeyScheme, str] = "dst_ip",
        value_scheme: Union[ValueScheme, str] = "bytes",
        t_fraction: float = 0.05,
        top_n: int = 0,
        lateness_tolerance: float = 0.0,
        key_source: str = "twopass",
        sink=None,
        recorder=None,
        **model_params,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
        if t_fraction < 0:
            raise ValueError(f"t_fraction must be >= 0, got {t_fraction}")
        if top_n < 0:
            raise ValueError(f"top_n must be >= 0, got {top_n}")
        if lateness_tolerance < 0:
            raise ValueError(
                f"lateness_tolerance must be >= 0, got {lateness_tolerance}"
            )
        self.schema = schema
        if isinstance(forecaster, str):
            forecaster = make_forecaster(forecaster, **model_params)
        elif model_params:
            raise ValueError("model_params only apply when forecaster is given by name")
        self.forecaster = forecaster
        interval = self.interval_seconds = float(interval_seconds)
        self._index_of = lambda t: interval_index(t, interval)
        self.key_scheme = (
            make_key_scheme(key_scheme) if isinstance(key_scheme, str) else key_scheme
        )
        self.value_scheme = (
            make_value_scheme(value_scheme)
            if isinstance(value_scheme, str)
            else value_scheme
        )
        # Keys are hashed only at a flush, so a key the schema's hash
        # family cannot take is refused where it enters, not there.
        family = getattr(schema, "family", None)
        self._key_bits = 64 if family is None else family_key_bits(family)
        if self.key_scheme.bits > self._key_bits:
            raise ValueError(
                f"key scheme {self.key_scheme.name!r} makes "
                f"{self.key_scheme.bits}-bit keys; the {family!r} hash "
                f"family takes at most {self._key_bits} bits"
            )
        self.t_fraction = float(t_fraction)
        self.top_n = int(top_n)
        self.lateness_tolerance = float(lateness_tolerance)
        if key_source == "online":
            raise ValueError(
                "key_source='online' needs the next interval's keys; "
                "use repro.detection.online.OnlineDetector"
            )
        self.key_source = key_source
        if sink is not None and not callable(sink):
            raise TypeError(
                f"sink must be callable, got {type(sink).__name__}"
            )
        self.sink = sink
        self._sealer = IntervalSealer(
            schema,
            forecaster,
            t_fraction=self.t_fraction,
            top_n=self.top_n,
            key_source=key_source,
            recorder=recorder,
        )
        self._preregister_obs()

        self._current_index: Optional[int] = None
        self._interval: Optional[_OpenInterval] = None
        self._records_ingested = 0
        self._intervals_sealed = 0
        self._watermark = float("-inf")

    def _preregister_obs(self) -> None:
        """Adopt the sealer's recorder; create session-owned series at zero."""
        self.recorder = obs = self._sealer.recorder
        obs.preregister("repro_records_ingested_total")
        obs.preregister_stage("collect")
        if self.sink is not None:
            obs.preregister_stage("archive_sink")

    def attach_recorder(self, recorder) -> None:
        """Attach (or replace) the observability recorder on a live session.

        Recorders are execution state, not result state -- checkpoints
        never carry them -- so a restored session starts with the no-op
        default.  This re-attaches one; pass ``None`` to detach.
        """
        self._sealer.attach_recorder(recorder)
        self._preregister_obs()

    # -- introspection -------------------------------------------------------

    @property
    def current_interval(self) -> Optional[int]:
        """Index of the interval currently accumulating (None before data)."""
        return self._current_index

    @property
    def records_ingested(self) -> int:
        """Total records accepted so far."""
        return self._records_ingested

    @property
    def intervals_sealed(self) -> int:
        """Intervals completed and stepped through the model."""
        return self._intervals_sealed

    @property
    def stats(self) -> dict:
        """Amortization counters for the detection hot path.

        ``detection`` carries ``candidates`` (keys handed to the report
        builder) and ``median_evaluated`` (keys that actually paid the
        H-way median; the gap is what the prescreen excluded exactly).
        """
        return {"detection": dict(self._sealer.stats)}

    @property
    def watermark(self) -> float:
        """Latest record timestamp accepted (``-inf`` before any data).

        The recovery cursor: after restoring a checkpoint, re-feed only
        records with ``timestamp > watermark`` to continue exactly where
        the checkpointed session left off.
        """
        return self._watermark

    # -- ingestion -----------------------------------------------------------

    def ingest(self, records: np.ndarray) -> List[IntervalDetection]:
        """Feed a chunk of records; returns reports for intervals sealed.

        A chunk may hold records in any order and span several intervals;
        every interval strictly before the chunk's latest timestamp gets
        sealed in order (including empty gap intervals, so the forecast
        series stays evenly spaced).  The chunk is vetted whole first: a
        record array of the wrong dtype, a NaN or infinite timestamp, a
        record older than the lateness tolerance allows or a non-finite
        value rejects it with ``ValueError`` before any session state
        changes.
        """
        open_index = self._current_index
        with self.recorder.time("ingest"):
            # Late-but-tolerated records are clamped into the open interval.
            records, first, last, runs = _cut_into_intervals(
                records, self._index_of, open_index
            )
            if not runs:
                return []
            if open_index is not None:
                floor = open_index * self.interval_seconds
                if first < floor - self.lateness_tolerance:
                    raise ValueError(
                        f"record at t={first:.3f}s predates the open interval "
                        f"(starting {floor:.3f}s) by more than the lateness "
                        "tolerance"
                    )
            keys = np.asarray(self.key_scheme.extract(records), dtype=np.uint64)
            values = SummaryConvention.as_value_array(
                self.value_scheme.extract(records), len(keys)
            )
            if len(runs) == 1:
                # One interval, the common case: the fresh arrays go to
                # the buffer as they are.
                reports = self._add(runs[0][0], keys, values)
            else:
                reports = []
                for index, lo, hi in runs:
                    reports.extend(self._add(index, keys[lo:hi], values[lo:hi]))
        self._accepted(len(keys), last)
        return reports

    def ingest_columns(self, block) -> List[IntervalDetection]:
        """Feed one columnar batch; returns reports for intervals sealed.

        The zero-copy twin of :meth:`ingest`: ``block`` is a
        :class:`~repro.streams.model.KeyedUpdates` (or anything exposing
        ``index``, ``keys``, ``values``) whose key/value arrays were
        extracted upstream -- typically views produced by
        :func:`~repro.streams.sharding.iter_interval_columns` -- and skip
        extraction and re-sorting.  The session copies them into its
        interval buffer, so the caller may reuse the arrays once this
        returns.  Blocks must arrive in nondecreasing interval order (each
        block already belongs to exactly one interval, so there is no
        lateness window to tolerate); results are bit-identical to
        record-chunk ingestion of the same data.  A non-integer index,
        keys that are not non-negative integers, a key wider than the
        schema's hash family takes, mismatched shapes or a non-finite
        value reject the block with ``ValueError`` before any session
        state changes.
        """
        index = checked_index(block.index, "columnar block index")
        if self._current_index is not None and index < self._current_index:
            raise ValueError(
                f"columnar block for interval {index} predates the open "
                f"interval {self._current_index}; blocks must arrive in "
                "nondecreasing interval order"
            )
        keys = SummaryConvention.as_key_array(block.keys)
        values = np.asarray(block.values, dtype=np.float64)
        if keys.shape != values.shape:
            raise ValueError(
                f"keys/values must be matching 1-D arrays, got "
                f"{keys.shape} and {values.shape}"
            )
        # Buffered records reach the sketch's own checks only at the next
        # flush, so a bad block is rejected here, on its own call.
        SummaryConvention.as_value_array(values, len(values))
        if (
            self._key_bits < 64
            and len(keys)
            and keys.max() >> np.uint64(self._key_bits)
        ):
            raise ValueError(
                f"key {int(keys.max())} is wider than the {self._key_bits} "
                "bits the schema's hash family takes"
            )
        with self.recorder.time("ingest"):
            # Handed over as views, so the buffer copies them after the
            # seal: the caller owns the block's arrays once this returns.
            reports = self._add(index, keys.view(), values.view())
        # Columnar blocks carry no per-record timestamps; the recovery
        # cursor advances to the open interval's start, so a columnar
        # replay resumes at block granularity (feed blocks with
        # ``block.index >= current_interval`` after a restore).
        self._accepted(len(keys), index * self.interval_seconds)
        return reports

    def _add(
        self, index: int, keys: np.ndarray, values: np.ndarray
    ) -> List[IntervalDetection]:
        """The one way into the open interval: seal every interval before
        ``index``, then buffer ``(keys, values)`` there.

        The buffer outlives the call, so it holds only arrays it owns: a
        view -- one interval's slice of a chunk's columns, a caller's
        columnar block -- is copied, after the seal, so a sealing call
        never holds both the copy and the sealed interval.
        """
        reports = self._advance_to(index)
        if len(keys):
            self._interval.add(
                keys if keys.flags.owndata else keys.copy(),
                values if values.flags.owndata else values.copy(),
            )
        return reports

    def _accepted(self, records: int, watermark: float) -> None:
        """Count an accepted call's records and advance the cursor."""
        self._records_ingested += records
        self._watermark = max(self._watermark, watermark)
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_records_ingested_total", records)
            obs.gauge("repro_watermark_seconds", self._watermark)

    def _advance_to(self, interval_index: int) -> List[IntervalDetection]:
        """Seal every interval before ``interval_index``."""
        reports: List[IntervalDetection] = []
        if self._current_index is None:
            self._current_index = interval_index
            self._open_interval()
            return reports
        while self._current_index < interval_index:
            reports.extend(self._seal_current())
            self._current_index += 1
            self._open_interval()
        return reports

    def _open_interval(self) -> None:
        """Start accumulating a fresh interval."""
        # Drop the sealed interval first: unless the forecaster kept it,
        # its table is freed before the next one is allocated.
        self._interval = None
        # Recovery key sources reconstruct candidates from the sealed
        # summary, so only the two-pass source pays for key dedup.
        self._interval = _OpenInterval(
            self.schema.empty(), self.key_source == "twopass"
        )

    # -- checkpoint state ----------------------------------------------------

    def _accumulation_state(self) -> dict:
        """Open-interval accumulation state, in checkpoint-codec values.

        Capturing never flushes: the buffered records are stored raw, as
        one keys and one values array, so the restored session flushes at
        the same points and an invertible sketch votes over the same
        batches as the uninterrupted run.  The flushed keys are already
        one deduplicated array, and the half-built sketch's float64
        counters round-trip exactly.
        """
        interval = self._interval
        if interval is None:
            return {"sketch": None, "keys": np.array([], dtype=np.uint64)}
        buffer_keys, buffer_values = interval.pending()
        return {
            "sketch": interval.sketch,
            "keys": interval.unique_keys,
            "buffer_keys": buffer_keys,
            "buffer_values": buffer_values,
        }

    def _restore_accumulation(self, state: dict) -> None:
        """Install accumulation state captured by :meth:`_accumulation_state`.

        A checkpoint written before the interval buffer existed carries
        no ``buffer_*`` fields and restores with an empty buffer.
        """
        if state["sketch"] is None:
            self._interval = None
            return
        self._interval = interval = _OpenInterval(
            state["sketch"], self.key_source == "twopass"
        )
        if len(state["keys"]):
            interval.unique_keys = state["keys"]
        buffer_keys = state.get("buffer_keys")
        if buffer_keys is not None and len(buffer_keys):
            interval.add(buffer_keys, state["buffer_values"])

    # -- sealing -------------------------------------------------------------

    def _seal_current(self) -> List[IntervalDetection]:
        """Seal the open interval: archive sink, forecast step, report."""
        index = self._current_index
        with self.recorder.time("collect"):
            observed, keys = self._interval.collect()
        with self.recorder.time("seal"):
            if self.sink is not None:
                # Archive hook: before the forecast step so the sink sees
                # the observed summary exactly as sealed (the step then
                # writes Se over it; the sink must copy).
                with self.recorder.time("archive_sink"):
                    self.sink(observed, keys, index)
            self._intervals_sealed += 1
            report = self._sealer.seal(observed, keys, index)
        return [] if report is None else [report]

    def flush(self) -> List[IntervalDetection]:
        """Seal the currently open interval (end of stream / shutdown).

        The session remains usable afterwards; the next ingested record
        opens a fresh interval (which must not predate the flushed one).
        """
        if self._current_index is None:
            return []
        reports = self._seal_current()
        self._current_index += 1
        self._open_interval()
        return reports
