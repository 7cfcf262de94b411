"""Sharded parallel ingestion built on sketch linearity (COMBINE).

The paper makes COMBINE a first-class sketch operation precisely so that
summaries built independently can be merged without touching the stream
twice.  This module turns that into an ingestion architecture:

:class:`ShardedIngestEngine`
    Accumulates one analysis interval across ``n_workers`` shards.  Record
    chunks are routed to shards as they arrive (cheap view bookkeeping);
    the expensive work is deferred to interval *seal*: each shard folds
    its buffered records into a private sketch in one batched pass, and
    the interval's key set is deduplicated in one pass over all shards'
    keys.  The shard sketches are then merged with COMBINE.  Because the sketch is linear and the paper's
    update values are integral (bytes/packets/counts are exact in
    float64), the merged table is **bit-identical** to single-shard
    ingestion, for every partitioning scheme.

    Backends: ``"serial"`` runs shard seals inline (one batched update
    per shard, like the plain session's one per interval);
    ``"thread"`` seals shards on a thread pool (the
    stacked-hash C kernels release the GIL); ``"process"`` seals shards
    on a forked process pool writing counter tables into
    :class:`~repro.sketch.mergeable.SharedTableBlock` slots, which the
    parent merges zero-copy -- only keys/values cross the process
    boundary, never tables.

:class:`ShardedStreamingSession`
    Drop-in :class:`~repro.detection.session.StreamingSession` with an
    ``n_workers`` knob -- same reports, alarm for alarm.

:func:`parallel_trace_detect`
    Multi-trace mode for the offline detector: sketch R router traces
    concurrently and COMBINE them into the paper's network-wide summary
    before forecasting/detection.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.detection.pipeline import summarize_stream
from repro.detection.session import StreamingSession
from repro.detection.threshold import IntervalDetection
from repro.obs.recorder import NULL_RECORDER

#: Supervision trace-event kinds, pre-registered at zero on the
#: ``repro_supervision_events_total`` counter when a recorder attaches
#: so a healthy run still exports the full failure-mode series.
_SUPERVISION_EVENTS = (
    "degraded_seal",
    "worker_timeout",
    "worker_retry",
    "pool_rebuild",
)
from repro.sketch.mergeable import SchemaHandle, SharedTableBlock, merge
from repro.streams.keys import dedup_keys
from repro.streams.model import ColumnarBlock
from repro.streams.sharding import (
    SHARD_METHODS,
    partition_columns,
    partition_records,
)

BACKENDS = ("serial", "thread", "process")

_EMPTY_KEYS = np.array([], dtype=np.uint64)

#: Default ceiling on the exponential retry backoff (seconds).  Without a
#: cap, ``retry_backoff * 2**attempt`` grows without bound as soon as an
#: operator raises ``max_retries`` -- a handful of failed attempts and the
#: supervision layer itself becomes the availability problem.
DEFAULT_RETRY_BACKOFF_MAX = 5.0


def _resolve_futures(futures, timeout, clock=time.monotonic):
    """Resolve every future under ONE shared monotonic deadline.

    ``f.result(timeout=t)`` applied per future in a loop accumulates: each
    straggler restarts the clock, so a batch of N hung tasks blocks for
    ``N * t`` wall-clock seconds.  Here the deadline is fixed once, from
    ``clock()`` (monotonic -- immune to wall-clock steps), and every
    future is given only the time *remaining*; total wait is bounded by
    ``timeout`` no matter how many shards hang.  ``timeout=None`` waits
    forever, as before.  Raises ``concurrent.futures.TimeoutError`` once
    per batch when the deadline expires.
    """
    if timeout is None:
        return [f.result() for f in futures]
    deadline = clock() + timeout
    return [f.result(timeout=max(0.0, deadline - clock())) for f in futures]

# Worker-process state: one attached SharedTableBlock per process, set up
# once by the pool initializer (hash tables rebuilt from the SchemaHandle
# and cached, so the per-task payload is just keys/values).
_WORKER_BLOCK: Optional[SharedTableBlock] = None


def _process_worker_init(name: str, handle: SchemaHandle, n_slots: int) -> None:
    global _WORKER_BLOCK
    _WORKER_BLOCK = SharedTableBlock.attach(name, handle, n_slots)


def _process_worker_seal(
    slot: int, keys: np.ndarray, values: np.ndarray, collect_keys: bool = True
):
    # Each slot is sealed by exactly one task per interval, so zeroing
    # here (instead of a parent-side sweep) keeps empty gap intervals free.
    _WORKER_BLOCK.slot(slot)[:] = 0.0
    _WORKER_BLOCK.summary(slot).update_batch(keys, values)
    # Sessions with a recovering key source never read the key set; the
    # per-shard dedup (and its pickle back) is skipped entirely.
    return dedup_keys(keys) if collect_keys else None


def _sketch_shard(schema, keys: np.ndarray, values: np.ndarray):
    """Fold one shard's buffered items into a fresh sketch."""
    sketch = schema.empty()
    sketch.update_batch(keys, values)
    return sketch


class ShardedIngestEngine:
    """Accumulate one interval across N shards; seal with COMBINE.

    Parameters
    ----------
    schema:
        Summary schema shared by all shards (any mergeable kind).
    n_workers:
        Number of shards (= pool size for thread/process backends).
    backend:
        ``"serial"``, ``"thread"`` or ``"process"`` (see module docs).
    key_scheme / value_scheme:
        Record-to-item extraction, as in :class:`StreamingSession`.
    partition:
        How records are routed to shards: ``"chunk"`` (default) deals
        whole chunks round-robin -- zero per-record routing cost;
        ``"hash"``/``"round_robin"``/``"block"`` split inside each chunk
        via :func:`~repro.streams.sharding.partition_records`.  All
        partitionings yield the same merged sketch (linearity).
    task_timeout:
        Seconds a seal task may run before the interval is considered
        stuck (``None``, the default, waits forever).  On the process
        backend a timeout triggers the retry path below; on the thread
        backend it falls straight back to serial sealing.
    max_retries:
        Process-backend retry budget per interval.  Worker failures
        (a killed process, a broken pool, a timeout) rebuild the pool and
        re-seal; after ``max_retries`` failed retries the engine enters
        **degraded mode**: the interval is sealed serially in the parent,
        so a dying worker can delay a report but never lose one.
    retry_backoff:
        Base sleep (seconds) between retries, doubled each attempt.
    retry_backoff_max:
        Ceiling on the doubled backoff (seconds, default
        :data:`DEFAULT_RETRY_BACKOFF_MAX`); keeps a long retry budget
        from turning into unbounded sleeps.
    collect_keys:
        Whether :meth:`collect` also returns the interval's deduplicated
        key set (default ``True``).  Sessions using a recovering key
        source (invertible/group-testing) never read it, so disabling
        skips the per-interval dedup over every ingested key --
        the sharded half of retiring the second pass.  :meth:`collect`
        then returns an empty key array.

    The lifecycle per interval is ``open_interval()``, ``accumulate()``
    for each single-interval chunk, then ``collect()`` returning
    ``(merged_summary, unique_keys)``.  ``close()`` releases the pool and
    any shared memory; the engine is also a context manager.  Supervision
    outcomes are tallied in :attr:`stats` (``retries``, ``timeouts``,
    ``pool_rebuilds``, ``degraded_intervals``).
    """

    def __init__(
        self,
        schema,
        n_workers: int = 1,
        backend: str = "serial",
        key_scheme=None,
        value_scheme=None,
        partition: str = "chunk",
        task_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        retry_backoff_max: float = DEFAULT_RETRY_BACKOFF_MAX,
        collect_keys: bool = True,
        recorder=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r} (expected {BACKENDS})")
        if partition != "chunk" and partition not in SHARD_METHODS:
            raise ValueError(
                f"unknown partition {partition!r} "
                f"(expected 'chunk' or one of {SHARD_METHODS})"
            )
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        if retry_backoff_max < 0:
            raise ValueError(
                f"retry_backoff_max must be >= 0, got {retry_backoff_max}"
            )
        from repro.streams.keys import make_key_scheme, make_value_scheme

        self.schema = schema
        self.n_workers = int(n_workers)
        self.backend = backend
        self.partition = partition
        self.task_timeout = task_timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_max = float(retry_backoff_max)
        self.collect_keys = bool(collect_keys)
        # Injectable monotonic clock: the shared-deadline future collection
        # and the retry backoff read elapsed time through this, so tests
        # can prove the timing contracts against a fake clock.
        self._clock = time.monotonic
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.recorder.preregister_labelled(
            "repro_supervision_events_total", "event", _SUPERVISION_EVENTS
        )
        self.stats = {
            "retries": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "degraded_intervals": 0,
        }
        self.key_scheme = (
            make_key_scheme(key_scheme or "dst_ip")
            if key_scheme is None or isinstance(key_scheme, str)
            else key_scheme
        )
        self.value_scheme = (
            make_value_scheme(value_scheme or "bytes")
            if value_scheme is None or isinstance(value_scheme, str)
            else value_scheme
        )

        # Per-shard buffered (keys, values) arrays for the open interval.
        self._buffers: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(self.n_workers)
        ]
        self._rr = 0  # chunk-mode round-robin cursor
        self._pool = None
        self._handle: Optional[SchemaHandle] = None
        self._block: Optional[SharedTableBlock] = None
        if backend == "thread":
            self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
        elif backend == "process":
            self._handle = SchemaHandle.from_schema(schema)
            self._block = SharedTableBlock.create(schema, self.n_workers)
            self._pool = self._make_process_pool()

    def _make_process_pool(self) -> ProcessPoolExecutor:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = mp.get_context()
        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=ctx,
            initializer=_process_worker_init,
            initargs=(self._block.name, self._handle, self.n_workers),
        )

    def _supervise(self, stat_key: str, event_kind: str, **fields) -> None:
        """Tally one supervision outcome: the ad-hoc ``stats`` dict stays
        the canonical storage (the ``.stats`` / ``supervision_stats``
        views read it), and the recorder mirrors it as a
        ``repro_supervision_events_total{event=...}`` counter plus a
        structured trace event.  All call sites are failure paths, so no
        ``enabled`` guard is needed."""
        self.stats[stat_key] += 1
        self.recorder.count(
            "repro_supervision_events_total", event=event_kind
        )
        self.recorder.event(event_kind, backend=self.backend, **fields)

    # -- interval lifecycle --------------------------------------------------

    def open_interval(self) -> None:
        """Start a fresh interval (drops any uncollected buffers)."""
        for buf in self._buffers:
            buf.clear()
        self._rr = 0

    def accumulate(self, chunk: np.ndarray) -> None:
        """Buffer one single-interval record chunk into its shard(s).

        Deliberately cheap: extract the key/value columns and append the
        views.  No hashing, no dedup -- that is seal-time work.
        """
        if not len(chunk):
            return
        if self.partition == "chunk" or self.n_workers == 1:
            keys = self.key_scheme.extract(chunk)
            values = self.value_scheme.extract(chunk)
            self._buffers[self._rr].append((keys, values))
            self._rr = (self._rr + 1) % self.n_workers
        else:
            parts = partition_records(
                chunk, self.n_workers,
                method=self.partition, key_scheme=self.key_scheme,
            )
            for shard, part in enumerate(parts):
                if len(part):
                    self._buffers[shard].append(
                        (self.key_scheme.extract(part), self.value_scheme.extract(part))
                    )

    def accumulate_columns(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Buffer one single-interval columnar batch into its shard(s).

        The zero-copy twin of :meth:`accumulate`: ``keys``/``values`` are
        already extracted columns (typically views from
        :func:`~repro.streams.sharding.iter_interval_columns`) and are
        buffered as-is -- in chunk mode (or with one worker) no copy
        happens anywhere between the feeder and the sketch UPDATE.
        Other partitionings go through
        :func:`~repro.streams.sharding.partition_columns` (``"block"``
        stays zero-copy; ``"hash"``/``"round_robin"`` group by fancy
        indexing, which copies).
        """
        if not len(keys):
            return
        if self.partition == "chunk" or self.n_workers == 1:
            self._buffers[self._rr].append((keys, values))
            self._rr = (self._rr + 1) % self.n_workers
        else:
            parts = partition_columns(
                ColumnarBlock(index=0, keys=keys, values=values),
                self.n_workers,
                method=self.partition,
            )
            for shard, part in enumerate(parts):
                if len(part):
                    self._buffers[shard].append((part.keys, part.values))

    @staticmethod
    def _items_of(buf) -> Tuple[np.ndarray, np.ndarray]:
        if len(buf) == 1:
            return buf[0]
        keys = np.concatenate([k for k, _ in buf])
        values = np.concatenate([v for _, v in buf])
        return keys, values

    def _shard_items(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._items_of(self._buffers[shard])

    def _dedup_parent(self, shard_items) -> np.ndarray:
        # The parent already holds every shard's raw keys, so the
        # interval's key set is one dedup over their concatenation --
        # the same work as single-shard ingestion, independent of
        # n_workers (per-shard dedup would make seals *more* expensive
        # as workers are added).
        if not self.collect_keys:
            return _EMPTY_KEYS
        return dedup_keys(
            shard_items[0][0]
            if len(shard_items) == 1
            else np.concatenate([k for k, _ in shard_items])
        )

    def _seal_degraded(self, loaded, shard_items):
        """Degraded mode: seal the interval serially in the parent.

        The last line of supervision -- when workers keep failing, the
        interval's records are still in the parent's buffers, so the seal
        runs inline (exactly the serial backend's code path) and the
        report is emitted late rather than lost.  Any partially-written
        shared slots from dead workers are zeroed and ignored.
        """
        self._supervise(
            "degraded_intervals", "degraded_seal", shards=len(shard_items)
        )
        if self._block is not None:
            for i in loaded:
                self._block.slot(i)[:] = 0.0
        summaries = [_sketch_shard(self.schema, *items) for items in shard_items]
        return summaries, self._dedup_parent(shard_items)

    def _seal_process(self, loaded, shard_items):
        # Workers dedup their own keys (smaller result pickles back);
        # the parent unions the per-shard sorted sets.
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            futures = []
            try:
                futures = [
                    self._pool.submit(
                        _process_worker_seal, i, *items, self.collect_keys
                    )
                    for i, items in zip(loaded, shard_items)
                ]
                key_sets = _resolve_futures(
                    futures, self.task_timeout, clock=self._clock
                )
                summaries = [self._block.summary(i) for i in loaded]
                if not self.collect_keys:
                    keys = _EMPTY_KEYS
                elif len(key_sets) == 1:
                    keys = key_sets[0]
                else:
                    keys = dedup_keys(np.concatenate(key_sets))
                return summaries, keys
            except Exception as exc:
                for future in futures:
                    future.cancel()
                if isinstance(exc, _FuturesTimeout):
                    self._supervise(
                        "timeouts", "worker_timeout", attempt=attempt
                    )
                # Whatever failed -- a killed worker (BrokenProcessPool), a
                # timeout, a transient task error -- the pool may now hold
                # stragglers still writing their slots.  Rebuild it so every
                # retry starts from quiesced workers and freshly-zeroed
                # slots (each seal task zeroes its slot first), instead of
                # racing a stale task on the same slot.
                self._rebuild_pool()
                if attempt + 1 < attempts:
                    self._supervise(
                        "retries", "worker_retry",
                        attempt=attempt, error=type(exc).__name__,
                    )
                    if self.retry_backoff:
                        time.sleep(self._backoff_delay(attempt))
        return self._seal_degraded(loaded, shard_items)

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential retry delay, capped at ``retry_backoff_max``."""
        return min(self.retry_backoff * (2.0**attempt), self.retry_backoff_max)

    def _seal_thread(self, loaded, shard_items):
        futures = [
            self._pool.submit(_sketch_shard, self.schema, *items)
            for items in shard_items
        ]
        try:
            summaries = _resolve_futures(
                futures, self.task_timeout, clock=self._clock
            )
        except _FuturesTimeout:
            # Threads cannot be killed or respawned, so there is no retry
            # tier: a stuck seal degrades straight to the serial path.
            # (Non-timeout task exceptions propagate -- thread tasks run
            # our own deterministic code, so retrying cannot help.)
            for future in futures:
                future.cancel()
            self._supervise("timeouts", "worker_timeout", attempt=0)
            return self._seal_degraded(loaded, shard_items)
        return summaries, self._dedup_parent(shard_items)

    def _rebuild_pool(self) -> None:
        """Terminate the process pool's workers and start a fresh pool."""
        pool, self._pool = self._pool, None
        if pool is not None:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - broken-pool teardown
                pass
        self._supervise("pool_rebuilds", "pool_rebuild")
        self._pool = self._make_process_pool()

    def snapshot_interval(self):
        """Detach the open interval's buffers (cheap, caller's thread).

        Returns an opaque snapshot -- the ``(shard, buffer)`` pairs for
        every loaded shard -- and leaves the engine with fresh empty
        buffers so the next interval can accumulate immediately.  Pass
        the snapshot to :meth:`seal_snapshot` (possibly from a pipeline
        worker) to produce the merged summary.  No concatenation or
        hashing happens here: the expensive half of collection is
        deferred with the snapshot.
        """
        snapshot = []
        for i in range(self.n_workers):
            if self._buffers[i]:
                snapshot.append((i, self._buffers[i]))
                self._buffers[i] = []
        self._rr = 0
        return snapshot

    def seal_snapshot(self, snapshot):
        """Seal a detached interval snapshot: sketch per shard, COMBINE.

        Safe to run on a background thread as long as seals execute one
        at a time (the pipeline's single worker guarantees this): the
        worker pool and shared-memory slots are only touched here, and
        the snapshot owns its buffers outright.
        """
        if not snapshot:
            return self.schema.empty(), _EMPTY_KEYS
        loaded = [i for i, _ in snapshot]
        shard_items = [self._items_of(buf) for _, buf in snapshot]
        if self.backend == "process":
            summaries, keys = self._seal_process(loaded, shard_items)
        elif self.backend == "thread":
            summaries, keys = self._seal_thread(loaded, shard_items)
        else:
            summaries = [
                _sketch_shard(self.schema, *items) for items in shard_items
            ]
            keys = self._dedup_parent(shard_items)

        # merge() allocates a fresh summary, so process-backend slot views
        # are safe to reuse next interval.
        summary = summaries[0] if len(summaries) == 1 else merge(summaries)
        if self.backend == "process" and len(summaries) == 1:
            summary = merge(summaries)  # detach from the shared slot
        return summary, keys

    def collect(self):
        """Seal the interval: one batched update per shard, then COMBINE.

        Returns ``(merged_summary, unique_keys)`` where ``unique_keys``
        equals ``np.unique`` over every key ingested this interval --
        byte-for-byte what single-stream ingestion computes.  Worker
        failures on the pool backends are supervised (retry with backoff,
        then degraded serial sealing), so an interval with buffered
        records always produces its summary.
        """
        return self.seal_snapshot(self.snapshot_interval())

    # -- checkpoint support --------------------------------------------------

    def capture_buffers(self) -> dict:
        """Open-interval buffer state, in checkpoint-codec values.

        The per-shard ``(keys, values)`` pairs are captured in arrival
        order, so a restored engine seals the interval with the exact
        same per-shard batched updates -- the merged table is
        bit-identical to the uninterrupted run's.
        """
        return {
            "rr": self._rr,
            "buffers": [list(buf) for buf in self._buffers],
        }

    def restore_buffers(self, state: dict) -> None:
        """Install buffer state captured by :meth:`capture_buffers`."""
        buffers = state["buffers"]
        if len(buffers) != self.n_workers:
            raise ValueError(
                f"checkpoint holds {len(buffers)} shard buffers, engine has "
                f"{self.n_workers} shards"
            )
        self.open_interval()
        self._rr = int(state["rr"]) % self.n_workers
        for buf, saved in zip(self._buffers, buffers):
            buf.extend(
                (
                    np.asarray(keys, dtype=np.uint64),
                    np.asarray(values, dtype=np.float64),
                )
                for keys, values in saved
            )

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool and release shared memory."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._block is not None:
            self._block.close()
            self._block = None

    def __enter__(self) -> "ShardedIngestEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedStreamingSession(StreamingSession):
    """A :class:`StreamingSession` whose ingestion is sharded.

    Drop-in replacement: same constructor arguments plus ``n_workers``,
    ``backend``, ``partition`` and the supervision knobs ``task_timeout``,
    ``max_retries``, ``retry_backoff``, ``retry_backoff_max`` (all
    forwarded to :class:`ShardedIngestEngine`).  Reports are identical to the serial
    session's -- same alarms, thresholds and top-N -- because the merged
    per-interval sketch and candidate key set are identical (COMBINE
    linearity; integral update values are exact in float64).

    Call :meth:`close` (or use as a context manager) to release worker
    pools and shared memory when done.
    """

    def __init__(
        self,
        schema,
        forecaster,
        n_workers: int = 2,
        backend: str = "thread",
        partition: str = "chunk",
        task_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        retry_backoff_max: float = DEFAULT_RETRY_BACKOFF_MAX,
        **kwargs,
    ) -> None:
        super().__init__(schema, forecaster, **kwargs)
        self._engine = ShardedIngestEngine(
            schema,
            n_workers=n_workers,
            backend=backend,
            key_scheme=self.key_scheme,
            value_scheme=self.value_scheme,
            partition=partition,
            task_timeout=task_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            retry_backoff_max=retry_backoff_max,
            collect_keys=self.key_source == "twopass",
            recorder=self.recorder,
        )

    def attach_recorder(self, recorder) -> None:
        """Attach a recorder to both the session and its ingest engine."""
        super().attach_recorder(recorder)
        self._engine.recorder = self.recorder
        self._engine.recorder.preregister_labelled(
            "repro_supervision_events_total", "event", _SUPERVISION_EVENTS
        )

    @property
    def n_workers(self) -> int:
        """Number of ingestion shards."""
        return self._engine.n_workers

    @property
    def backend(self) -> str:
        """The engine's seal backend (``serial``/``thread``/``process``)."""
        return self._engine.backend

    @property
    def partition(self) -> str:
        """How records are routed to shards."""
        return self._engine.partition

    @property
    def supervision_stats(self) -> dict:
        """Snapshot of the engine's supervision counters."""
        return dict(self._engine.stats)

    @property
    def stats(self) -> dict:
        """Detection-path counters plus the engine's supervision counters."""
        combined = super().stats
        combined["supervision"] = self.supervision_stats
        return combined

    def _open_interval(self) -> None:
        self._engine.open_interval()  # state lives in the engine

    def _accumulate(self, chunk: np.ndarray) -> None:
        self._engine.accumulate(chunk)

    def _accumulate_columns(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._engine.accumulate_columns(keys, values)

    def _collect_current(self):
        return self._engine.collect()

    def _detach_current(self):
        # Pipelined snapshot: grab the per-shard buffers on the calling
        # thread (list swaps, no concatenation) and defer the whole
        # sketch-per-shard + COMBINE to the pipeline worker.  The single
        # seal worker means the engine's pool and shared-memory slots
        # never see concurrent seals.
        snapshot = self._engine.snapshot_interval()
        index = self._current_index

        def work():
            with self.recorder.time("collect"):
                observed, keys = self._engine.seal_snapshot(snapshot)
            return self._seal_interval(observed, keys, index)

        return work

    def _accumulation_state(self) -> dict:
        # The raw per-shard buffers (not a dedup or a half-built sketch):
        # a restored engine replays the exact per-shard batched updates,
        # preserving summation order and hence bit-identity.
        return {"engine": self._engine.capture_buffers()}

    def _restore_accumulation(self, state: dict) -> None:
        self._engine.restore_buffers(state["engine"])

    def close(self):
        """Drain the pipeline, then release worker pools and shared memory.

        Returns any reports completed by the drain (``[]`` when not
        pipelined, matching :meth:`StreamingSession.close`).
        """
        reports = super().close()
        self._engine.close()
        return reports

    def __enter__(self) -> "ShardedStreamingSession":
        return self


# -- parallel multi-trace offline detection ----------------------------------


def sketch_traces_parallel(
    schema,
    streams: Sequence[Iterable],
    n_workers: Optional[int] = None,
) -> List[Tuple[int, object, np.ndarray]]:
    """Summarize R interval streams concurrently; COMBINE per interval.

    Each stream (e.g. one router's :class:`~repro.streams.model.IntervalStream`)
    is summarized on its own thread -- sketch UPDATE dominates and releases
    the GIL in the stacked C kernels.  Streams are aligned positionally and
    must agree on interval indices; the combined entry ``t`` is
    ``(index, COMBINE of all routers' So(t), union of their key sets)`` --
    the paper's network-wide summary.
    """
    stream_lists = [list(s) for s in streams]
    if not stream_lists:
        return []

    def _summarize(batches):
        return (
            [b.index for b in batches],
            summarize_stream(batches, schema),
            [dedup_keys(b.keys) for b in batches],
        )

    if n_workers is None:
        n_workers = len(stream_lists)
    if n_workers > 1 and len(stream_lists) > 1:
        with ThreadPoolExecutor(max_workers=min(n_workers, len(stream_lists))) as pool:
            per_stream = list(pool.map(_summarize, stream_lists))
    else:
        per_stream = [_summarize(batches) for batches in stream_lists]

    n_intervals = min(len(idx) for idx, _, _ in per_stream)
    combined = []
    for t in range(n_intervals):
        indices = {idx[t] for idx, _, _ in per_stream}
        if len(indices) != 1:
            raise ValueError(
                f"streams disagree on interval index at position {t}: {sorted(indices)}"
            )
        observed = merge([obs[t] for _, obs, _ in per_stream])
        keys = dedup_keys(np.concatenate([keys[t] for _, _, keys in per_stream]))
        combined.append((indices.pop(), observed, keys))
    return combined


def parallel_trace_detect(
    detector,
    streams: Sequence[Iterable],
    n_workers: Optional[int] = None,
) -> List[IntervalDetection]:
    """Run an :class:`OfflineTwoPassDetector` over R traces network-wide.

    Sketches every stream concurrently (:func:`sketch_traces_parallel`),
    COMBINEs per interval, then forecasts and detects over the combined
    summaries.  The reports are identical to running ``detector`` on the
    merged raw trace -- distribution introduces no approximation.
    """
    combined = sketch_traces_parallel(detector.schema, streams, n_workers=n_workers)
    return list(detector.seal_intervals(combined))
