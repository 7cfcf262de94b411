"""Keyed update streams: the glue between records and summaries.

Converts flow-record traces into the Turnstile-model streams the sketch
and detection layers consume: per-interval ``(keys, values)`` batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from repro.streams.intervals import IntervalSlicer, RandomizedIntervalSlicer
from repro.streams.keys import KeyScheme, ValueScheme, make_key_scheme, make_value_scheme
from repro.streams.records import validate_records


class StreamItem(NamedTuple):
    """One Turnstile item ``(a_i, u_i)``: a key and a signed update."""

    key: int
    update: float


@dataclass
class KeyedUpdates:
    """A batch of Turnstile items for one interval, in columnar form.

    ``uint64`` keys and ``float64`` values, as :class:`IntervalStream`
    extracts them per interval or
    :func:`~repro.streams.sharding.iter_interval_columns` yields them as
    unit-stride views into columns extracted once per trace.  Batch
    consumers take anything exposing ``index``, ``keys`` and ``values``:
    :meth:`StreamingSession.ingest_columns` any number of batches per
    interval, in nondecreasing index order; the batch detectors
    (:class:`OfflineTwoPassDetector`, the online and adaptive detectors)
    one whole interval per batch, in increasing index order, which they
    check.
    """

    index: int
    keys: np.ndarray    # uint64, 1-D
    values: np.ndarray  # float64, 1-D
    duration: float = 0.0  # interval length in seconds

    def __len__(self) -> int:
        return len(self.keys)

    def items(self) -> Iterator[StreamItem]:
        """Iterate row-wise (mostly for tests; hot paths stay columnar)."""
        for key, value in zip(self.keys.tolist(), self.values.tolist()):
            yield StreamItem(key, value)


Slicer = Union[IntervalSlicer, RandomizedIntervalSlicer]


class IntervalStream:
    """Iterates a flow trace as per-interval keyed update batches.

    Parameters
    ----------
    records:
        Flow record array, in any order (the slicer sorts a copy when it
        is not time-sorted).
    interval_seconds:
        Fixed interval length; ignored when ``slicer`` is given.
    key_scheme / value_scheme:
        Scheme objects or registry names (default: the paper's
        ``dst_ip`` / ``bytes``).
    slicer:
        Custom slicer (e.g. :class:`RandomizedIntervalSlicer`); overrides
        ``interval_seconds``.
    normalize_by_duration:
        Divide updates by the interval duration, turning totals into
        rates.  Required for meaningful comparison under randomized
        intervals (see paper Section 6).
    """

    def __init__(
        self,
        records: np.ndarray,
        interval_seconds: float = 300.0,
        key_scheme: Union[KeyScheme, str] = "dst_ip",
        value_scheme: Union[ValueScheme, str] = "bytes",
        slicer: Optional[Slicer] = None,
        normalize_by_duration: bool = False,
    ) -> None:
        validate_records(records)
        self.records = records
        self.key_scheme = (
            make_key_scheme(key_scheme) if isinstance(key_scheme, str) else key_scheme
        )
        self.value_scheme = (
            make_value_scheme(value_scheme)
            if isinstance(value_scheme, str)
            else value_scheme
        )
        self.slicer: Slicer = slicer or IntervalSlicer(interval_seconds)
        self.normalize_by_duration = bool(normalize_by_duration)

    def __iter__(self) -> Iterator[KeyedUpdates]:
        for index, chunk in self.slicer.slices(self.records):
            keys = self.key_scheme.extract(chunk)
            values = self.value_scheme.extract(chunk)
            duration = self.slicer.duration_of(index)
            if self.normalize_by_duration and duration > 0:
                values = values / duration
            yield KeyedUpdates(index=index, keys=keys, values=values, duration=duration)

    def interval_count(self) -> int:
        """Number of intervals the trace spans (including empty ones)."""
        count = 0
        for count, _ in enumerate(self.slicer.slices(self.records), start=1):
            pass
        return count
