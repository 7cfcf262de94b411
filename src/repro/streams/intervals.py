"""Time binning: fixed intervals, plus the randomized-interval extension.

The paper breaks time into discrete intervals ``I_1, I_2, ...`` of fixed
length -- 300 s as the responsiveness/overhead compromise, 60 s to study
shorter horizons -- and computes one observed sketch per interval.

The "ongoing work" section points out that fixed intervals suffer boundary
effects (a change straddling a boundary is split between two sketches) and
suggests randomizing the interval size, e.g. exponentially distributed
lengths with totals normalized by duration.  Linearity of sketches makes
the normalization sound; :class:`RandomizedIntervalSlicer` implements it.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.streams.records import validate_records


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


def require_finite(timestamps: np.ndarray) -> None:
    """Raise ``ValueError`` if any timestamp is NaN or infinite.

    A full scan: the slicers trust their input to be sorted and never
    re-sort it, so the two ends alone do not vet a NaN.
    """
    finite = np.isfinite(timestamps)
    if not finite.all():
        bad = timestamps[~finite]
        raise ValueError(
            f"record timestamps must be finite, got {len(bad)} non-finite "
            f"(first: {float(bad[0])})"
        )


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


def slice_by_interval(
    records: np.ndarray,
    interval_seconds: float,
    start: float = 0.0,
    *,
    on_before_start: str = "raise",
    stats: Optional[dict] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(interval_index, records_in_interval)`` over a sorted trace.

    Empty intervals in the middle of the trace are yielded with empty
    record arrays so that forecast models see a complete, evenly spaced
    series -- skipping them would silently compress time.

    Records with ``timestamp < start`` belong to no interval.  They used
    to be excluded silently; now the choice is explicit:

    ``on_before_start="raise"`` (default)
        Raise :class:`ValueError` naming the count -- a record before the
        epoch almost always means the caller passed the wrong ``start``,
        and quietly losing traffic corrupts every downstream total.
    ``on_before_start="drop"``
        Skip them, exposing the count as ``stats["dropped_before_start"]``
        when a ``stats`` dict is supplied.

    A NaN or infinite timestamp raises ``ValueError`` before any slice is
    yielded.
    """
    validate_records(records)
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
    if on_before_start not in ("raise", "drop"):
        raise ValueError(
            f"on_before_start must be 'raise' or 'drop', got {on_before_start!r}"
        )
    if stats is not None:
        stats.setdefault("dropped_before_start", 0)
    if not len(records):
        return
    timestamps = records["timestamp"]
    require_finite(timestamps)
    n_before = int(np.searchsorted(timestamps, start, side="left"))
    if n_before:
        if on_before_start == "raise":
            raise ValueError(
                f"{n_before} record(s) predate start={start!r} "
                f"(earliest t={float(timestamps[0])!r}); pass "
                "on_before_start='drop' to skip them explicitly"
            )
        if stats is not None:
            stats["dropped_before_start"] += n_before
    last = timestamps[-1]
    if last < start:  # the whole trace predates start: nothing to slice
        return
    n_intervals = interval_index(float(last), interval_seconds, start) + 1
    edges = start + interval_seconds * np.arange(n_intervals + 1)
    positions = np.searchsorted(timestamps, edges)
    for index in range(n_intervals):
        yield index, records[positions[index] : positions[index + 1]]


class IntervalSlicer:
    """Object form of :func:`slice_by_interval` carrying its parameters.

    ``on_before_start`` follows the function's contract; with ``"drop"``,
    the running total of skipped records is exposed as
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
        if on_before_start not in ("raise", "drop"):
            raise ValueError(
                f"on_before_start must be 'raise' or 'drop', got {on_before_start!r}"
            )
        self.interval_seconds = float(interval_seconds)
        self.start = float(start)
        self.on_before_start = on_before_start
        self._stats = {"dropped_before_start": 0}

    @property
    def dropped_before_start(self) -> int:
        """Records skipped for predating ``start`` (only in ``"drop"`` mode)."""
        return self._stats["dropped_before_start"]

    def slices(self, records: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(interval_index, records)`` pairs."""
        return slice_by_interval(
            records,
            self.interval_seconds,
            self.start,
            on_before_start=self.on_before_start,
            stats=self._stats,
        )

    def duration_of(self, index: int) -> float:
        """Nominal duration of an interval (constant for fixed slicing)."""
        return self.interval_seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IntervalSlicer(interval_seconds={self.interval_seconds})"


class RandomizedIntervalSlicer:
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
        if on_before_start not in ("raise", "drop"):
            raise ValueError(
                f"on_before_start must be 'raise' or 'drop', got {on_before_start!r}"
            )
        self.mean_seconds = float(mean_seconds)
        self.start = float(start)
        self.on_before_start = on_before_start
        self._stats = {"dropped_before_start": 0}
        rng = np.random.default_rng(seed)
        lengths: List[float] = []
        total = 0.0
        while total < horizon:
            length = float(
                np.clip(
                    rng.exponential(mean_seconds),
                    min_fraction * mean_seconds,
                    max_factor * mean_seconds,
                )
            )
            lengths.append(length)
            total += length
        self._edges = self.start + np.concatenate([[0.0], np.cumsum(lengths)])

    def duration_of(self, index: int) -> float:
        """Actual duration of interval ``index``."""
        return float(self._edges[index + 1] - self._edges[index])

    @property
    def dropped_before_start(self) -> int:
        """Records skipped for predating ``start`` (only in ``"drop"`` mode)."""
        return self._stats["dropped_before_start"]

    def slices(self, records: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(interval_index, records)`` under the random boundaries.

        Records predating ``start`` follow the :func:`slice_by_interval`
        contract: raise by default, or count into
        :attr:`dropped_before_start` in ``"drop"`` mode.  So do NaN and
        infinite timestamps: ``ValueError`` before any slice.
        """
        validate_records(records)
        if not len(records):
            return
        timestamps = records["timestamp"]
        require_finite(timestamps)
        n_before = int(np.searchsorted(timestamps, self.start, side="left"))
        if n_before:
            if self.on_before_start == "raise":
                raise ValueError(
                    f"{n_before} record(s) predate start={self.start!r} "
                    f"(earliest t={float(timestamps[0])!r}); pass "
                    "on_before_start='drop' to skip them explicitly"
                )
            self._stats["dropped_before_start"] += n_before
        last = timestamps[-1]
        if last < self.start:
            return
        n_intervals = int(np.searchsorted(self._edges, last, side="right"))
        if n_intervals >= len(self._edges):
            raise ValueError(
                "trace extends beyond the pre-drawn horizon; increase `horizon`"
            )
        positions = np.searchsorted(timestamps, self._edges[: n_intervals + 1])
        for index in range(n_intervals):
            yield index, records[positions[index] : positions[index + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomizedIntervalSlicer(mean_seconds={self.mean_seconds})"
