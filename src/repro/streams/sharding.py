"""Interval-aligned chunking of record traces.

:func:`iter_interval_chunks`
    Re-chunk a sorted trace so no chunk straddles an analysis-interval
    boundary, so every chunk belongs to exactly one interval.
:func:`iter_interval_columns`
    The columnar (zero-copy) counterpart: key/value columns are
    extracted **once** for the whole trace, then every yielded
    :class:`~repro.streams.model.ColumnarBlock` is a unit-stride view
    into them -- no per-chunk extraction, no per-chunk copies, and the
    arrays flow into the fused UPDATE kernels unmodified.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

import numpy as np

from repro.streams.intervals import interval_index
from repro.streams.keys import (
    KeyScheme,
    ValueScheme,
    make_key_scheme,
    make_value_scheme,
)
from repro.streams.model import ColumnarBlock
from repro.streams.records import finite_time_span, validate_records


def iter_interval_chunks(
    records: np.ndarray,
    interval_seconds: float,
    chunk_records: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield time-sorted chunks that never straddle an interval boundary.

    Splits first on analysis-interval boundaries (those of
    :func:`~repro.streams.intervals.interval_index`), then caps each
    piece at ``chunk_records`` rows.  The concatenation of the yielded
    chunks is exactly ``records`` in time order, so feeding them to any
    session reproduces single-stream ingestion; the boundary guarantee
    means each chunk maps to exactly one per-interval sketch.  A NaN or
    infinite timestamp raises ``ValueError`` before any chunk is yielded.
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
    indices = interval_index(timestamps, interval_seconds)
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
    indices = interval_index(timestamps, interval_seconds)
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
