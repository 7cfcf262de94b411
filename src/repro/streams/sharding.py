"""Record partitioning for sharded ingestion.

The sketch's COMBINE operation makes *where* a record is counted
irrelevant: shard the stream any way at all, sketch each shard
independently, merge, and the result equals the single-stream sketch.
This module provides the shard-assignment side of that bargain:

:func:`shard_assignments` / :func:`partition_records`
    Deterministic record-to-shard routing.  ``"hash"`` routes by a
    splitmix64 mix of the record key (key-affine: every update for a key
    lands on one shard -- the natural choice when shards also maintain
    per-key state), ``"round_robin"`` deals records out cyclically
    (best load balance), ``"block"`` slices contiguous runs (best
    locality; preserves each record's neighborhood).
:func:`iter_interval_chunks`
    Re-chunk a sorted trace so no chunk straddles an analysis-interval
    boundary -- the partition step an engine runs before handing chunks
    to workers, so every worker task belongs to exactly one interval.
:func:`iter_interval_columns` / :func:`partition_columns`
    The columnar (zero-copy) counterparts: key/value columns are
    extracted **once** for the whole trace, then every yielded
    :class:`~repro.streams.model.ColumnarBlock` is a unit-stride view
    into them -- no per-chunk extraction, no per-chunk copies, and the
    arrays flow into the fused UPDATE kernels unmodified.
:class:`BoundedChunkFeeder`
    A bounded producer/consumer queue over a chunk iterator, so a slow
    source (disk, socket) is read ahead of ingestion without unbounded
    buffering.  Item-agnostic: feeds record chunks and columnar blocks
    alike.
"""

from __future__ import annotations

import queue
import threading
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.streams.keys import (
    KeyScheme,
    ValueScheme,
    make_key_scheme,
    make_value_scheme,
)
from repro.streams.model import ColumnarBlock
from repro.streams.records import finite_time_span, validate_records

SHARD_METHODS = ("hash", "round_robin", "block")

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: a cheap, well-mixed uint64 -> uint64.

    Used for shard routing rather than the sketch's 4-universal families:
    routing only needs to spread load, not satisfy moment bounds, and it
    must be independent of the sketch hashes (routing with a sketch row's
    hash would correlate shard membership with bucket membership).
    """
    x = np.asarray(x, dtype=np.uint64) + _SM64_GAMMA
    x = (x ^ (x >> np.uint64(30))) * _SM64_M1
    x = (x ^ (x >> np.uint64(27))) * _SM64_M2
    return x ^ (x >> np.uint64(31))


def shard_assignments(
    records: np.ndarray,
    n_shards: int,
    method: str = "hash",
    key_scheme: Union[KeyScheme, str] = "dst_ip",
) -> np.ndarray:
    """Assign each record to a shard in ``[0, n_shards)``.

    ``method``:

    - ``"hash"``: ``splitmix64(key) % n_shards`` over the extracted record
      key -- deterministic and key-affine.
    - ``"round_robin"``: record position mod ``n_shards``.
    - ``"block"``: ``n_shards`` contiguous, near-equal runs.
    """
    validate_records(records)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n = len(records)
    if method == "hash":
        if isinstance(key_scheme, str):
            key_scheme = make_key_scheme(key_scheme)
        keys = key_scheme.extract(records)
        return (splitmix64(keys) % np.uint64(n_shards)).astype(np.int64)
    if method == "round_robin":
        return np.arange(n, dtype=np.int64) % n_shards
    if method == "block":
        return np.minimum(
            np.arange(n, dtype=np.int64) * n_shards // max(n, 1),
            n_shards - 1,
        )
    raise ValueError(f"unknown shard method {method!r} (expected {SHARD_METHODS})")


def partition_records(
    records: np.ndarray,
    n_shards: int,
    method: str = "hash",
    key_scheme: Union[KeyScheme, str] = "dst_ip",
) -> List[np.ndarray]:
    """Split a record chunk into ``n_shards`` per-shard chunks.

    Within each shard the records keep their original relative order, so
    per-shard streams remain time-sorted whenever the input chunk is.
    Empty shards come back as empty record arrays -- callers can zip the
    result with a worker pool without special-casing.
    """
    if n_shards == 1:
        validate_records(records)
        return [records]
    shards = shard_assignments(records, n_shards, method=method, key_scheme=key_scheme)
    # argsort(stable) groups by shard while preserving in-shard order.
    order = np.argsort(shards, kind="stable")
    grouped = records[order]
    counts = np.bincount(shards, minlength=n_shards)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [grouped[bounds[i] : bounds[i + 1]] for i in range(n_shards)]


def iter_interval_chunks(
    records: np.ndarray,
    interval_seconds: float,
    chunk_records: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield time-sorted chunks that never straddle an interval boundary.

    Splits first on analysis-interval boundaries (``timestamp //
    interval_seconds``), then caps each piece at ``chunk_records`` rows.
    The concatenation of the yielded chunks is exactly ``records`` in
    time order, so feeding them to any session reproduces single-stream
    ingestion; the boundary guarantee means each chunk maps to exactly
    one per-interval sketch -- the unit of work a sharded engine
    dispatches.  A NaN or infinite timestamp raises ``ValueError``
    before any chunk is yielded.
    """
    validate_records(records)
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
    if chunk_records is not None and chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    if not len(records):
        return
    timestamps = records["timestamp"]
    if len(records) > 1 and not np.all(np.diff(timestamps) >= 0):
        order = np.argsort(timestamps, kind="stable")
        records = records[order]
        timestamps = records["timestamp"]
    finite_time_span(timestamps)
    indices = (timestamps // interval_seconds).astype(np.int64)
    _, starts = np.unique(indices, return_index=True)
    bounds = np.append(starts, len(records))
    for b in range(len(bounds) - 1):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        if chunk_records is None:
            yield records[lo:hi]
        else:
            for start in range(lo, hi, chunk_records):
                yield records[start : min(start + chunk_records, hi)]


def iter_interval_columns(
    records: np.ndarray,
    interval_seconds: float,
    key_scheme: Union[KeyScheme, str] = "dst_ip",
    value_scheme: Union[ValueScheme, str] = "bytes",
    chunk_records: Optional[int] = None,
) -> Iterator[ColumnarBlock]:
    """Yield zero-copy :class:`ColumnarBlock` views over a sorted trace.

    The columnar twin of :func:`iter_interval_chunks`: key and value
    columns are extracted (and dtype-cast) **once** for the whole trace;
    every yielded block's ``keys``/``values`` are then unit-stride views
    into those two arrays (``np.shares_memory`` holds), split on
    analysis-interval boundaries and optionally capped at
    ``chunk_records`` rows.  Feeding the blocks to
    :meth:`StreamingSession.ingest_columns` reproduces record-chunk
    ingestion bit for bit while skipping all per-chunk extraction work
    and intermediate copies.  A NaN or infinite timestamp raises
    ``ValueError`` before any block is yielded: blocks carry no
    timestamps, so this is the last point that can see one.
    """
    validate_records(records)
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
    if chunk_records is not None and chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    if not len(records):
        return
    timestamps = records["timestamp"]
    if len(records) > 1 and not np.all(np.diff(timestamps) >= 0):
        order = np.argsort(timestamps, kind="stable")
        records = records[order]
        timestamps = records["timestamp"]
    finite_time_span(timestamps)
    if isinstance(key_scheme, str):
        key_scheme = make_key_scheme(key_scheme)
    if isinstance(value_scheme, str):
        value_scheme = make_value_scheme(value_scheme)
    # The only copies on this path: one cast per column, for the whole
    # trace.  Everything downstream is a view.
    keys = np.ascontiguousarray(key_scheme.extract(records), dtype=np.uint64)
    values = np.ascontiguousarray(
        value_scheme.extract(records), dtype=np.float64
    )
    indices = (timestamps // interval_seconds).astype(np.int64)
    uniq, starts = np.unique(indices, return_index=True)
    bounds = np.append(starts, len(records))
    duration = float(interval_seconds)
    for b in range(len(bounds) - 1):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        index = int(uniq[b])
        if chunk_records is None:
            yield ColumnarBlock(
                index=index, keys=keys[lo:hi], values=values[lo:hi],
                duration=duration,
            )
        else:
            for start in range(lo, hi, chunk_records):
                end = min(start + chunk_records, hi)
                yield ColumnarBlock(
                    index=index, keys=keys[start:end],
                    values=values[start:end], duration=duration,
                )


def partition_columns(
    block: ColumnarBlock,
    n_shards: int,
    method: str = "block",
) -> List[ColumnarBlock]:
    """Split one columnar block into ``n_shards`` per-shard blocks.

    ``"block"`` (the default) slices contiguous runs, so the shards stay
    zero-copy views of the parent's columns.  ``"hash"`` routes by
    ``splitmix64(key) % n_shards`` and ``"round_robin"`` deals rows out
    cyclically; both group by fancy indexing, which necessarily copies --
    use them only when key affinity or strict balance matters more than
    the copy.  In-shard relative order is preserved by every method, so
    per-cell accumulation order (and hence the sketch tables, exactly)
    matches unsharded ingestion after COMBINE.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return [block]
    n = len(block)
    if method == "block":
        bounds = [n * s // n_shards for s in range(n_shards + 1)]
        return [
            ColumnarBlock(
                index=block.index,
                keys=block.keys[bounds[s] : bounds[s + 1]],
                values=block.values[bounds[s] : bounds[s + 1]],
                duration=block.duration,
            )
            for s in range(n_shards)
        ]
    if method == "hash":
        shards = (splitmix64(block.keys) % np.uint64(n_shards)).astype(np.int64)
    elif method == "round_robin":
        shards = np.arange(n, dtype=np.int64) % n_shards
    else:
        raise ValueError(
            f"unknown shard method {method!r} (expected {SHARD_METHODS})"
        )
    order = np.argsort(shards, kind="stable")
    keys = block.keys[order]
    values = block.values[order]
    counts = np.bincount(shards, minlength=n_shards)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [
        ColumnarBlock(
            index=block.index,
            keys=keys[bounds[s] : bounds[s + 1]],
            values=values[bounds[s] : bounds[s + 1]],
            duration=block.duration,
        )
        for s in range(n_shards)
    ]


class BoundedChunkFeeder:
    """Read chunks ahead of the consumer through a bounded queue.

    A daemon thread drains ``source`` into a ``queue.Queue(maxsize)``;
    iterating the feeder yields chunks in order.  Backpressure is the
    queue bound: the producer blocks once ``maxsize`` chunks are waiting,
    so memory stays bounded no matter how fast the source is.  An
    exception in the source is re-raised to the consumer at the point of
    iteration.

    Usable as a context manager; :meth:`close` stops the producer and
    drops any queued chunks.
    """

    _DONE = object()

    def __init__(self, source: Iterable[np.ndarray], maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._queue: "queue.Queue" = queue.Queue(maxsize=maxsize)
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._produce, args=(iter(source),), daemon=True
        )
        self._thread.start()

    def _produce(self, source: Iterator[np.ndarray]) -> None:
        try:
            for chunk in source:
                while not self._stop.is_set():
                    try:
                        self._queue.put(chunk, timeout=0.1)
                        break
                    except queue.Full:
                        continue
                if self._stop.is_set():
                    return
        except BaseException as exc:  # noqa: BLE001 - relayed to consumer
            self._error = exc
        finally:
            while not self._stop.is_set():
                try:
                    self._queue.put(self._DONE, timeout=0.1)
                    break
                except queue.Full:
                    continue

    def __iter__(self) -> Iterator[np.ndarray]:
        # A plain blocking get() would deadlock against close(): the drain
        # there can swallow the _DONE sentinel, leaving a consumer waiting
        # on a queue nothing will ever feed again.  Poll with a timeout
        # and re-check the stop flag so iteration always terminates.
        while not self._stop.is_set():
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if item is self._DONE:
                break
            yield item
        if self._error is not None:
            raise self._error

    def close(self) -> None:
        """Stop the producer thread and discard buffered chunks.

        Idempotent.  A source exception captured before the close is kept;
        any consumer still iterating will observe it (or a clean stop)
        rather than hanging.
        """
        self._stop.set()
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "BoundedChunkFeeder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
