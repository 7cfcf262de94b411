"""Key sources: where an interval's candidate keys come from.

Every detector ends at the same place -- :func:`build_interval_report`
probing an error summary with a set of candidate keys -- but the package
now has four distinct ways of *producing* those candidates:

``"twopass"``
    Replay the interval's (and optionally recent intervals') observed
    keys against the sealed error sketch.  Exact but O(stream): the
    paper's offline strategy.
``"online"``
    Use the *next* interval's arriving keys (optionally subsampled).
    Single-pass, one interval of latency, misses keys that never return.
``"invertible"``
    Walk the invertible sketch's candidate buckets
    (:meth:`~repro.sketch.invertible.InvertibleKArySketch.recover_candidates`)
    -- O(H*K), no second pass and no key retention at all.
``"grouptesting"``
    Bit-decode the group-testing sketch's hot buckets
    (:meth:`~repro.detection.grouptesting.GroupTestingSketch.recover_keys`).

Historically the first two were open-coded in ``detection/twopass.py``
and ``detection/online.py``; :func:`resolve_key_source` now selects among
the four in one place.  Every resolution of a recovering source is timed
into ``repro_stage_seconds{stage="recover"}`` and tallied per source in
``repro_key_source_candidates_total{source=...}``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.detection.threshold import alarm_threshold
from repro.obs.recorder import NULL_RECORDER
from repro.streams.keys import dedup_keys

__all__ = [
    "KEY_SOURCES",
    "collect_replay_keys",
    "resolve_key_source",
]

#: Counter tallying candidates produced, labelled by key source.
CANDIDATES_COUNTER = "repro_key_source_candidates_total"

#: The key sources, in CLI/documentation order.
KEY_SOURCES = ("twopass", "online", "invertible", "grouptesting")

#: Sources that pass stream-collected keys through; the others recover
#: keys from the error summary itself.
_COLLECTED_SOURCES = ("twopass", "online")


def _recover_invertible(error_summary, threshold):
    recover = getattr(error_summary, "recover_candidates", None)
    if recover is None:
        raise TypeError(
            "key_source='invertible' needs an error summary with "
            "recover_candidates (an InvertibleKArySketch); got "
            f"{type(error_summary).__name__}"
        )
    return recover(0.0 if threshold is None else threshold)


def _recover_grouptesting(error_summary, threshold):
    recover = getattr(error_summary, "recover_keys", None)
    if recover is None:
        raise TypeError(
            "key_source='grouptesting' needs an error summary with "
            "recover_keys (a GroupTestingSketch); got "
            f"{type(error_summary).__name__}"
        )
    if threshold is None or threshold <= 0.0:
        raise ValueError(
            "key_source='grouptesting' requires a positive alarm "
            f"threshold (bucket decoding needs a cutoff), got {threshold}"
        )
    recovered = recover(threshold)
    return np.array(sorted(recovered), dtype=np.uint64)


def collect_replay_keys(recent_keys) -> np.ndarray:
    """Merge per-interval replay key sets into one sorted unique array.

    ``recent_keys`` is a sequence of per-interval deduplicated key
    arrays, most recent last (the two-pass detector's lookback window).
    With a single interval the array passes through unchanged, bit for
    bit.
    """
    recent = list(recent_keys)
    if not recent:
        return np.empty(0, dtype=np.uint64)
    if len(recent) == 1:
        return recent[-1]
    return dedup_keys(np.concatenate(recent))


def resolve_key_source(
    source: str,
    error_summary,
    *,
    t_fraction: Optional[float] = None,
    collected: Optional[np.ndarray] = None,
    recorder=None,
    error_l2: Optional[float] = None,
) -> np.ndarray:
    """Produce the candidate keys for one interval's report.

    Parameters
    ----------
    source:
        One of :data:`KEY_SOURCES`.
    error_summary:
        The interval's sealed error summary (recovery sources walk it).
    t_fraction:
        Alarm threshold parameter ``T``; recovery sources derive their
        bucket cutoff from :func:`alarm_threshold` over the error
        summary, matching the report's own threshold exactly.
    collected:
        Stream-collected keys for the pass-through sources.
    recorder:
        Optional recorder; recovery walks are timed into
        ``repro_stage_seconds{stage="recover"}`` and every resolution
        tallies ``repro_key_source_candidates_total{source=...}``.
    error_l2:
        ``error_summary.l2_norm()`` when the caller already holds it, so
        a recovery source does not estimate F2 a second time.
    """
    if source not in KEY_SOURCES:
        raise ValueError(
            f"unknown key source {source!r}; known: {KEY_SOURCES}"
        )
    obs = NULL_RECORDER if recorder is None else recorder
    if source in _COLLECTED_SOURCES:
        # Collection cost lives in the detector's ingest loop: untimed.
        if collected is None:
            raise ValueError(
                f"key source {source!r} needs stream-collected keys, got None"
            )
        keys = collected
    else:
        # Recovery sources derive the bucket cutoff from the same rule
        # the report will apply; pass-through sources skip the F2 pass.
        threshold = None
        if t_fraction is not None:
            threshold = alarm_threshold(error_summary, t_fraction, error_l2)
        recover = (
            _recover_invertible if source == "invertible"
            else _recover_grouptesting
        )
        with obs.time("recover"):
            keys = recover(error_summary, threshold)
    if obs.enabled:
        obs.count(CANDIDATES_COUNTER, len(keys), source=source)
    return keys
