"""Interval-aligned chunking of record traces.

:func:`iter_interval_chunks`
    Re-chunk a trace so no chunk straddles an analysis-interval
    boundary, so every chunk belongs to exactly one interval.
:func:`iter_interval_columns`
    The columnar (zero-copy) counterpart: key/value columns are
    extracted **once** for the whole trace, then every yielded
    :class:`~repro.streams.model.KeyedUpdates` is a unit-stride view
    into them -- no per-chunk extraction, no per-chunk copies, and the
    arrays flow into the fused UPDATE kernels unmodified.

Both take records in any order and cut them the way every interval
entrance does (:func:`~repro.streams.intervals._cut_into_intervals`),
then cap each interval's run at ``chunk_records`` rows.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.streams.intervals import _cut_into_intervals, interval_index
from repro.streams.keys import (
    KeyScheme,
    ValueScheme,
    make_key_scheme,
    make_value_scheme,
)
from repro.streams.model import KeyedUpdates


def _capped_runs(
    records: np.ndarray,
    interval_seconds: float,
    chunk_records: Optional[int],
) -> Tuple[np.ndarray, Iterator[Tuple[int, int, int]]]:
    """``(sorted_records, runs)``: the interval cut, each run capped at
    ``chunk_records`` rows and generated as it is read."""
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
    if chunk_records is not None and chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    records, _, _, runs = _cut_into_intervals(
        records, lambda t: interval_index(t, interval_seconds)
    )
    step = chunk_records or len(records)
    return records, (
        (index, lo, min(lo + step, hi))
        for index, start, hi in runs
        for lo in range(start, hi, step)
    )


def iter_interval_chunks(
    records: np.ndarray,
    interval_seconds: float,
    chunk_records: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield time-sorted chunks that never straddle an interval boundary.

    Splits first on analysis-interval boundaries, then caps each piece at
    ``chunk_records`` rows.  The concatenation of the yielded chunks is
    exactly ``records`` in time order (stable among equal timestamps), so
    feeding them to any session reproduces single-stream ingestion; the
    boundary guarantee means each chunk maps to exactly one per-interval
    sketch.  A NaN or infinite timestamp raises ``ValueError`` before any
    chunk is yielded.
    """
    records, runs = _capped_runs(records, interval_seconds, chunk_records)
    for _, lo, hi in runs:
        yield records[lo:hi]


def iter_interval_columns(
    records: np.ndarray,
    interval_seconds: float,
    key_scheme: Union[KeyScheme, str] = "dst_ip",
    value_scheme: Union[ValueScheme, str] = "bytes",
    chunk_records: Optional[int] = None,
) -> Iterator[KeyedUpdates]:
    """Yield zero-copy :class:`KeyedUpdates` views over a trace.

    The columnar twin of :func:`iter_interval_chunks`: key and value
    columns are extracted (and dtype-cast) **once** for the whole trace;
    every yielded batch's ``keys``/``values`` are then unit-stride views
    into those two arrays (``np.shares_memory`` holds), cut exactly where
    :func:`iter_interval_chunks` cuts.  Feeding the batches to
    :meth:`StreamingSession.ingest_columns` reproduces record-chunk
    ingestion bit for bit while skipping all per-chunk extraction work
    and intermediate copies.  A NaN or infinite timestamp raises
    ``ValueError`` before any batch is yielded: batches carry no
    timestamps, so this is the last point that can see one.
    """
    records, runs = _capped_runs(records, interval_seconds, chunk_records)
    if not len(records):
        return
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
    duration = float(interval_seconds)
    for index, lo, hi in runs:
        yield KeyedUpdates(
            index=index, keys=keys[lo:hi], values=values[lo:hi],
            duration=duration,
        )
