"""Heavy-hitter detection: the contrast class to change detection.

The paper's introduction distinguishes its problem from scalable
heavy-hitter detection (Estan & Varghese): "heavy-hitters do not
necessarily correspond to flows experiencing significant changes and thus
it is not clear how their techniques can be adapted to support change
detection".

This module implements heavy-hitter queries over the same k-ary sketches
so the two problems can be compared on identical streams: a stable
elephant flow is a heavy hitter but never a change; a mouse that doubles
is a change but never a heavy hitter.  (See the ``tests`` for exactly that
demonstration.)
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.sketch.base import SummaryConvention
from repro.streams.keys import dedup_keys


def heavy_hitters(
    summary,
    candidate_keys: np.ndarray,
    phi: float,
) -> Dict[int, float]:
    """Keys whose estimated total is at least ``phi`` of the stream total.

    Parameters
    ----------
    summary:
        Any linear summary of a (non-negative) interval's traffic.
    candidate_keys:
        Keys to test (deduplicated internally).
    phi:
        Heaviness fraction in (0, 1); the classical guarantee regime is
        ``phi > 1/K`` for a width-``K`` sketch.

    Returns
    -------
    ``{key: estimated_total}`` for keys meeting the threshold.
    """
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must be in (0, 1), got {phi}")
    keys = dedup_keys(SummaryConvention.as_key_array(candidate_keys))
    if not len(keys):
        return {}
    threshold = phi * summary.total()
    estimates = summary.estimate_batch(keys)
    hits = estimates >= threshold
    return {
        int(k): float(v)
        for k, v in zip(keys[hits].tolist(), estimates[hits].tolist())
    }


class HeavyHitterTracker:
    """Tracks per-interval heavy hitters and their persistence.

    Feeding one ``(summary, keys)`` pair per interval, the tracker
    maintains how many consecutive intervals each key has been heavy --
    the quantity that separates a stable elephant (heavy hitter, not a
    change) from a freshly arrived one (both).
    """

    def __init__(self, phi: float) -> None:
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        self.phi = float(phi)
        self._streak: Dict[int, int] = {}
        self._intervals = 0

    @property
    def intervals_seen(self) -> int:
        """Number of intervals processed."""
        return self._intervals

    def update(self, summary, candidate_keys: np.ndarray) -> Dict[int, float]:
        """Process one interval; returns its heavy hitters."""
        hitters = heavy_hitters(summary, candidate_keys, self.phi)
        self._streak = {
            key: self._streak.get(key, 0) + 1 for key in hitters
        }
        self._intervals += 1
        return hitters

    def persistent(self, min_streak: int) -> List[int]:
        """Keys heavy for at least ``min_streak`` consecutive intervals."""
        if min_streak < 1:
            raise ValueError(f"min_streak must be >= 1, got {min_streak}")
        return sorted(k for k, s in self._streak.items() if s >= min_streak)

    def new_this_interval(self) -> List[int]:
        """Keys that just became heavy (streak == 1) -- the overlap zone
        between heavy-hitter and change detection."""
        return sorted(k for k, s in self._streak.items() if s == 1)
