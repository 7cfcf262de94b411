"""Time binning: fixed intervals, plus the randomized-interval extension.

The paper breaks time into discrete intervals ``I_1, I_2, ...`` of fixed
length -- 300 s as the responsiveness/overhead compromise, 60 s to study
shorter horizons -- and computes one observed sketch per interval.

The "ongoing work" section points out that fixed intervals suffer boundary
effects (a change straddling a boundary is split between two sketches) and
suggests randomizing the interval size, e.g. exponentially distributed
lengths with totals normalized by duration.  Linearity of sketches makes
the normalization sound; :class:`RandomizedIntervalSlicer` implements it.

Records may arrive in any order (NetFlow exports a flow when it ends):
the slicers, the chunkers and ``StreamingSession.ingest`` all cut them
through one function, :func:`_cut_into_intervals`.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.streams.records import finite_time_span, validate_records


def interval_edge(index: int, interval_seconds: float, start: float = 0.0) -> float:
    """The canonical float edge of interval ``index``: ``start + i * len``.

    Every boundary in this module is derived by this one expression.
    Accumulating ``t += interval_seconds`` instead drifts: after a few
    thousand additions of a non-dyadic length (300.1 s, say) the running
    sum disagrees with the product in the last ulps, and a record whose
    timestamp sits exactly on the true edge lands in different intervals
    depending on which derivation the caller used.
    """
    return start + interval_seconds * index


def interval_index(timestamps, interval_seconds: float, start: float = 0.0):
    """The interval holding each timestamp: the ``i`` with
    ``interval_edge(i) <= t < interval_edge(i + 1)``.

    The one timestamp-to-index formula, so sessions, chunkers, slicers
    and the archive all agree with the edges the slicers cut at.
    ``t // interval_seconds`` does not: at non-dyadic lengths the
    quotient rounds across an edge (at 59.97 s,
    ``interval_edge(7, 59.97) // 59.97 == 6``), so the floored quotient
    is only a first guess, moved at most one step onto the edge's side.
    A Python float gives an ``int`` without touching NumPy; an array
    gives an ``int64`` array.  Timestamps must be finite.
    """
    if isinstance(timestamps, float):
        index = math.floor((timestamps - start) / interval_seconds)
        if interval_edge(index, interval_seconds, start) > timestamps:
            return index - 1
        if interval_edge(index + 1, interval_seconds, start) <= timestamps:
            return index + 1
        return index
    timestamps = np.asarray(timestamps, dtype=np.float64)
    index = np.floor((timestamps - start) / interval_seconds)
    index -= interval_edge(index, interval_seconds, start) > timestamps
    index += interval_edge(index + 1, interval_seconds, start) <= timestamps
    return index.astype(np.int64)


def checked_index(value, what: str = "interval index") -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integer.

    For interval indices arriving from outside (wire frames, query
    ranges): ``int()`` would read ``2.7`` as 2, ``"7"`` as 7 and ``True``
    as 1, and raises ``OverflowError`` on ``inf``.  ``bool`` is refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def interval_bounds(
    duration: float, interval_seconds: float, start: float = 0.0
) -> List[Tuple[float, float]]:
    """Fixed interval boundaries covering ``[start, start + duration)``.

    The last interval is truncated at the end of the trace.  Edges are
    derived by multiplication (:func:`interval_edge`), bit-identical to
    the edges :func:`slice_by_interval` partitions records with.
    """
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
    bounds = []
    end = start + duration
    index = 0
    while True:
        lo = interval_edge(index, interval_seconds, start)
        if lo >= end:
            break
        hi = min(interval_edge(index + 1, interval_seconds, start), end)
        bounds.append((lo, hi))
        index += 1
    return bounds


def _cut_into_intervals(
    records: np.ndarray,
    index_of: Callable,
    floor: Optional[int] = None,
) -> Tuple[np.ndarray, float, float, List[Tuple[int, int, int]]]:
    """The one cut of records into intervals: ``(records, first, last, runs)``.

    Validates ``records``, stably sorts them by time unless they already
    are, and checks the two sorted ends, ``first`` and ``last``, with
    :func:`~repro.streams.records.finite_time_span`.  ``runs`` lists
    ``(index, lo, hi)`` in index order, one per interval holding records:
    rows ``lo:hi`` of the sorted records.  ``index_of`` is the edge rule,
    with :func:`interval_index`'s contract; an index below ``floor``
    counts as ``floor``.  Empty records give no runs.
    """
    validate_records(records)
    if not len(records):
        return records, None, None, []
    timestamps = records["timestamp"]
    # One monotonicity scan is far cheaper than the argsort, and the
    # pairwise compare takes no differences.  A NaN fails it too, so it
    # sorts last, where the end check sees it; an infinite timestamp is
    # an end either way.
    if len(records) > 1 and not (timestamps[1:] >= timestamps[:-1]).all():
        records = records[np.argsort(timestamps, kind="stable")]
        timestamps = records["timestamp"]
    first, last = finite_time_span(timestamps)
    first_index, last_index = index_of(first), index_of(last)
    if floor is not None:
        first_index, last_index = max(first_index, floor), max(last_index, floor)
    if first_index == last_index:
        # Sorted, so indices are nondecreasing: when both ends share an
        # interval, so does every row -- settled on two Python floats,
        # with no per-record index array.
        return records, first, last, [(first_index, 0, len(records))]
    indices = index_of(timestamps)
    if floor is not None:
        np.maximum(indices, floor, out=indices)
    # Each interval is one contiguous run, delimited by the first
    # occurrence of each index.
    uniq, starts = np.unique(indices, return_index=True)
    bounds = np.append(starts, len(records)).tolist()
    return records, first, last, list(zip(uniq.tolist(), bounds, bounds[1:]))


def slice_by_interval(
    records: np.ndarray,
    interval_seconds: float,
    start: float = 0.0,
    *,
    on_before_start: str = "raise",
    stats: Optional[dict] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(interval_index, records_in_interval)`` over a trace.

    The function form of :meth:`IntervalSlicer.slices`; records dropped
    for predating ``start`` are counted into
    ``stats["dropped_before_start"]`` when a ``stats`` dict is supplied.
    """
    slicer = IntervalSlicer(interval_seconds, start, on_before_start)
    if stats is not None:
        stats.setdefault("dropped_before_start", 0)
        slicer._stats = stats
    return slicer.slices(records)


class _Slicer:
    """The two slicers' shared half: the before-start policy and ``slices``.

    A slicer states its edges as ``_index`` (:func:`interval_index`'s
    contract; ``t < start`` gives a negative index) and ``_horizon``, the
    first interval it has no edges for.
    """

    _horizon = math.inf

    def __init__(self, start: float, on_before_start: str) -> None:
        if on_before_start not in ("raise", "drop"):
            raise ValueError(
                f"on_before_start must be 'raise' or 'drop', got {on_before_start!r}"
            )
        self.start = float(start)
        self.on_before_start = on_before_start
        self._stats = {"dropped_before_start": 0}

    @property
    def dropped_before_start(self) -> int:
        """Records skipped for predating ``start`` (only in ``"drop"`` mode)."""
        return self._stats["dropped_before_start"]

    def slices(self, records: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(interval_index, records)`` pairs, records in any order.

        Every interval from 0 through the last record's is yielded, empty
        gap intervals too, so forecast models see an evenly spaced
        series.  A slice is a view of the time-sorted records.  Before
        any slice, a NaN or infinite timestamp raises ``ValueError``, and
        so, by default, do records before ``start``: they belong to no
        interval, and almost always mean a wrong ``start``.  With
        ``on_before_start="drop"`` they are counted into
        :attr:`dropped_before_start` instead.
        """
        records, first, _, runs = _cut_into_intervals(records, self._index)
        kept = [run for run in runs if run[0] >= 0]
        n_before = kept[0][1] if kept else len(records)
        if n_before:
            if self.on_before_start == "raise":
                raise ValueError(
                    f"{n_before} record(s) predate start={self.start!r} "
                    f"(earliest t={first!r}); pass "
                    "on_before_start='drop' to skip them explicitly"
                )
            self._stats["dropped_before_start"] += n_before
        if kept and kept[-1][0] >= self._horizon:
            raise ValueError(
                "trace extends beyond the pre-drawn horizon; increase `horizon`"
            )
        upto = 0
        for index, lo, hi in kept:
            for gap in range(upto, index):
                yield gap, records[lo:lo]
            yield index, records[lo:hi]
            upto = index + 1


class IntervalSlicer(_Slicer):
    """Fixed-length intervals from ``start``, at :func:`interval_edge`.

    ``on_before_start`` follows :meth:`slices`; with ``"drop"``, the
    running total of skipped records is exposed as
    :attr:`dropped_before_start`.
    """

    def __init__(
        self,
        interval_seconds: float,
        start: float = 0.0,
        on_before_start: str = "raise",
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
        super().__init__(start, on_before_start)
        self.interval_seconds = float(interval_seconds)

    def _index(self, timestamps):
        return interval_index(timestamps, self.interval_seconds, self.start)

    def duration_of(self, index: int) -> float:
        """Nominal duration of an interval (constant for fixed slicing)."""
        return self.interval_seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IntervalSlicer(interval_seconds={self.interval_seconds})"


class RandomizedIntervalSlicer(_Slicer):
    """Exponentially distributed interval lengths (boundary-effect extension).

    Interval lengths are drawn i.i.d. ``Exponential(mean_seconds)``,
    truncated to ``[min_fraction, max_factor]`` times the mean so no
    interval is degenerate.  Because durations vary, downstream users
    should normalize observed totals by :meth:`duration_of` -- sketches
    scale linearly, so normalization commutes with summarization.
    """

    def __init__(
        self,
        mean_seconds: float,
        seed: Optional[int] = 0,
        start: float = 0.0,
        min_fraction: float = 0.2,
        max_factor: float = 3.0,
        horizon: float = 10 * 86400.0,
        on_before_start: str = "raise",
    ) -> None:
        if mean_seconds <= 0:
            raise ValueError(f"mean_seconds must be > 0, got {mean_seconds}")
        if min_fraction <= 0:
            raise ValueError(f"min_fraction must be > 0, got {min_fraction}")
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        super().__init__(start, on_before_start)
        self.mean_seconds = float(mean_seconds)
        # Every length is at least min_fraction * mean, so this many draws
        # reach the horizon; drawn in one call, they are the same stream
        # of numbers as one draw at a time, and the running sum is cut at
        # the first edge that reaches the horizon.
        count = math.ceil(horizon / (min_fraction * mean_seconds)) + 1
        lengths = np.clip(
            np.random.default_rng(seed).exponential(mean_seconds, size=count),
            min_fraction * mean_seconds,
            max_factor * mean_seconds,
        )
        ends = np.cumsum(lengths)
        self._horizon = int(np.searchsorted(ends, horizon)) + 1
        self._edges = self.start + np.concatenate([[0.0], ends[: self._horizon]])

    def _index(self, timestamps):
        index = np.searchsorted(self._edges, timestamps, side="right") - 1
        return int(index) if isinstance(timestamps, float) else index

    def duration_of(self, index: int) -> float:
        """Actual duration of interval ``index``."""
        return float(self._edges[index + 1] - self._edges[index])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomizedIntervalSlicer(mean_seconds={self.mean_seconds})"
