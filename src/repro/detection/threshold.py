"""The alarm rule (paper Section 3.3) and the per-interval report builder.

After constructing the forecast error summary ``Se(t)``, the alarm
threshold is

    ``T_A = T * sqrt(ESTIMATEF2(Se(t)))``

where ``T`` is an application-chosen fraction of the L2 norm of the
forecast errors (the paper sweeps ``T`` over {0.01, 0.02, 0.05, 0.07,
0.1}).  A key raises an alarm when the absolute reconstructed error meets
the threshold.

Every detector in this package finishes an interval the same way, through
:class:`~repro.detection.session.IntervalSealer`: reconstruct
candidate-key errors from ``Se(t)``, threshold them into alarms,
optionally rank the top-N.  :func:`build_interval_report` is that one
shared implementation; :class:`IntervalDetection` is its output, and
:func:`narrow_report` re-reads one at a higher ``T`` for threshold
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs.recorder import NULL_RECORDER, STAGE_HISTOGRAM
from repro.sketch.base import SummaryConvention
from repro.streams.keys import dedup_keys

from time import perf_counter as _perf_counter

_EMPTY_KEYS = np.array([], dtype=np.uint64)
_EMPTY_ERRORS = np.array([], dtype=np.float64)


@dataclass(frozen=True)
class Alarm:
    """One raised alarm: a key whose forecast error was significant."""

    interval: int
    key: int
    estimated_error: float
    threshold: float

    @property
    def magnitude(self) -> float:
        """How far past the threshold the error landed (>= 1.0).

        With a zero threshold, any nonzero error is infinitely far past
        it; a zero error sits exactly at it (magnitude 1.0), not past it.
        """
        if self.threshold:
            return abs(self.estimated_error) / self.threshold
        return float("inf") if self.estimated_error else 1.0


@dataclass
class IntervalDetection:
    """Detection output for one interval."""

    index: int
    threshold: float
    alarms: List[Alarm]
    top_keys: np.ndarray          # top-N keys by |error| (empty if n=0)
    top_errors: np.ndarray        # their signed estimated errors
    error_l2: float               # sqrt(ESTIMATEF2(Se(t)))

    @property
    def alarm_count(self) -> int:
        """Number of alarms raised in the interval."""
        return len(self.alarms)


def _evaluate_medians(rows, estimates, evaluated, idx) -> None:
    """Fill ``estimates[idx]`` with the per-column medians of ``rows[:, idx]``.

    ``np.median`` over a column subset computes each column independently,
    so the filled values are bit-identical to the corresponding entries of
    ``np.median(rows, axis=0)`` over the full matrix.
    """
    todo = idx[~evaluated[idx]]
    if len(todo):
        estimates[todo] = np.median(rows[:, todo], axis=0)
        evaluated[todo] = True


#: Minimum keys evaluated per top-N refinement round; amortizes the
#: per-round bookkeeping without over-evaluating small candidate sets.
_PRESCREEN_CHUNK = 256


def build_interval_report(
    error_summary,
    candidate_keys: np.ndarray,
    *,
    interval: int,
    t_fraction: Optional[float],
    top_n: int = 0,
    schema=None,
    prescreen: bool = True,
    stats: Optional[dict] = None,
    recorder=None,
    error_l2: Optional[float] = None,
) -> IntervalDetection:
    """Finish one interval: threshold candidate errors and rank the top-N.

    Parameters
    ----------
    error_summary:
        ``Se(t)`` -- any summary with ``estimate_batch`` / ``l2_norm``.
    candidate_keys:
        Candidate keys, sorted and deduplicated (``dedup_keys`` output).
        Every caller already holds them in that form; re-deduplicating
        here would tax the hot path.
    interval:
        Interval index recorded in the report and its alarms.
    t_fraction:
        Threshold parameter ``T``; ``None`` disables alarming (the report
        then carries ``threshold=0.0`` and no alarms).
    top_n:
        Also rank the ``top_n`` keys by absolute error (0 disables).
    schema:
        When given, the prescreen hashes the keys once via
        ``schema.bucket_indices`` and reads their rows by index;
        without it (or for schemas without ``bucket_indices``) the rows
        are read by key.  Either way the report is the same.
    prescreen:
        Exact median prescreen (default on).  The median over rows is
        bounded by the per-key max absolute row estimate, which one
        vectorized pass over the gathered rows yields for free; the
        per-key ``np.median`` then runs only on keys whose bound reaches
        the alarm threshold (plus the keys needed to settle the top-N).
        Provably identical output; set ``False`` to force the reference
        full-median path.  Requires ``error_summary.estimate_rows`` (k-ary
        and Count Sketch); summaries without it fall back silently.
    stats:
        Optional mutable dict; ``candidates`` and ``median_evaluated``
        counters are accumulated into it (prescreen effectiveness =
        evaluated / candidates).
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder`; stage
        timings for the F2/threshold computation, the candidate-key
        hashing, and the estimate/median scan are
        observed into ``repro_stage_seconds``.  The default
        :data:`~repro.obs.recorder.NULL_RECORDER` path costs one no-op
        call per stage.
    error_l2:
        ``error_summary.l2_norm()`` when the caller already holds it (the
        seal step computes it once for the key source and the report);
        ``None`` computes it here, timed as the ``f2_threshold`` stage.

    The estimates are computed once and reused by both the alarm scan and
    the top-N ranking.  :func:`alarms_for_interval` and
    :func:`~repro.detection.topn.top_n_keys` are this function with one
    half switched off.
    """
    obs = NULL_RECORDER if recorder is None else recorder
    keys = SummaryConvention.as_key_array(candidate_keys)
    l2 = error_l2
    if l2 is None:
        with obs.time("f2_threshold"):
            l2 = error_summary.l2_norm()
    threshold = 0.0 if t_fraction is None else t_fraction * l2
    n = len(keys)
    if n == 0:
        # Empty-candidate fast path: an interval can legitimately close
        # with no keys to test (the online detector's final unchecked
        # interval, an all-gap seal), for *every* schema kind -- exact
        # and dense included, which never reach the hashed-index code
        # below.  The report still carries the interval's L2/threshold
        # so callers can tell "nothing alarmed" from "nothing checked".
        if stats is not None:
            stats["candidates"] = stats.get("candidates", 0)
            stats["median_evaluated"] = stats.get("median_evaluated", 0)
        return IntervalDetection(
            index=interval,
            threshold=threshold,
            alarms=[],
            top_keys=_EMPTY_KEYS,
            top_errors=_EMPTY_ERRORS,
            error_l2=l2,
        )
    alarms: List[Alarm] = []
    top_keys = _EMPTY_KEYS
    top_errors = _EMPTY_ERRORS
    evaluated_count = 0
    if t_fraction is not None or top_n:
        estimate_rows = (
            getattr(error_summary, "estimate_rows", None) if prescreen else None
        )
        indices = None
        if estimate_rows is not None and hasattr(schema, "bucket_indices"):
            with obs.time("hash_index"):
                indices = schema.bucket_indices(keys)
        _t0 = _perf_counter() if obs.enabled else 0.0
        if estimate_rows is not None:
            rows = estimate_rows(keys, indices=indices)
            # |median over rows| <= max over rows |row estimate|: an exact
            # bound for any select-from-rows estimator, computed here
            # without materializing np.abs(rows).
            upper = np.maximum(rows.max(axis=0), -rows.min(axis=0))
            estimates = np.empty(n, dtype=np.float64)
            evaluated = np.zeros(n, dtype=bool)
            if t_fraction is not None:
                # Keys whose bound is below the threshold cannot alarm;
                # the median runs only on the survivors.  Same zero-
                # threshold rule as the reference path: exact-zero errors
                # never alarm.
                survivors = np.flatnonzero(
                    upper >= threshold if threshold > 0.0 else upper > 0.0
                )
                _evaluate_medians(rows, estimates, evaluated, survivors)
                mags = np.abs(estimates[survivors])
                keep = mags >= threshold if threshold > 0.0 else mags > 0.0
                hit_idx = survivors[keep]
                alarms = [
                    Alarm(
                        interval=interval,
                        key=int(k),
                        estimated_error=float(e),
                        threshold=threshold,
                    )
                    for k, e in zip(
                        keys[hit_idx].tolist(), estimates[hit_idx].tolist()
                    )
                ]
            if top_n:
                # Evaluate the keys with the largest bounds until the
                # top_n-th largest evaluated magnitude provably dominates
                # every unevaluated bound.  argpartition (O(n)) replaces a
                # full sort: after partitioning at m, every unselected key
                # has a bound <= upper[part[m]], so that single pivot is
                # the stop test.  Strictness matters: a bound *equal* to
                # the kth magnitude could still tie and win on the key
                # tie-break, so stopping requires pivot < kth.  Which
                # tied-bound keys land in the selection is arbitrary and
                # irrelevant: any unevaluated key's |median| <= bound < kth
                # strictly, and the final restricted lexsort ranks whatever
                # got evaluated.
                m = max(int(top_n), _PRESCREEN_CHUNK)
                while True:
                    if m >= n:
                        _evaluate_medians(
                            rows, estimates, evaluated,
                            np.arange(n, dtype=np.intp),
                        )
                        break
                    part = np.argpartition(-upper, m)
                    _evaluate_medians(rows, estimates, evaluated, part[:m])
                    eval_idx = np.flatnonzero(evaluated)
                    if len(eval_idx) >= top_n:
                        mags = np.abs(estimates[eval_idx])
                        kth = np.partition(mags, len(mags) - top_n)[
                            len(mags) - top_n
                        ]
                        if upper[part[m]] < kth:
                            break
                    m = min(n, 2 * m)
                eval_idx = np.flatnonzero(evaluated)
                order = np.lexsort(
                    (keys[eval_idx], -np.abs(estimates[eval_idx]))
                )
                chosen = eval_idx[order[:top_n]]
                top_keys = keys[chosen]
                top_errors = estimates[chosen]
            evaluated_count = int(np.count_nonzero(evaluated))
        else:
            estimates = error_summary.estimate_batch(keys)
            evaluated_count = n
            magnitudes = np.abs(estimates)
            if t_fraction is not None:
                # A zero threshold (T = 0, or an all-zero error summary)
                # must not alarm on keys whose reconstructed error is
                # exactly zero -- they carry no change signal at all.
                hits = (
                    magnitudes >= threshold if threshold > 0.0 else magnitudes > 0.0
                )
                alarms = [
                    Alarm(
                        interval=interval,
                        key=int(k),
                        estimated_error=float(e),
                        threshold=threshold,
                    )
                    for k, e in zip(keys[hits].tolist(), estimates[hits].tolist())
                ]
            if top_n:
                order = np.lexsort((keys, -magnitudes))
                chosen = order[:top_n]
                top_keys = keys[chosen]
                top_errors = estimates[chosen]
        if obs.enabled:
            obs.observe(
                STAGE_HISTOGRAM, _perf_counter() - _t0,
                stage="estimate_threshold",
            )
    if stats is not None:
        stats["candidates"] = stats.get("candidates", 0) + n
        stats["median_evaluated"] = (
            stats.get("median_evaluated", 0) + evaluated_count
        )
    return IntervalDetection(
        index=interval,
        threshold=threshold,
        alarms=alarms,
        top_keys=top_keys,
        top_errors=top_errors,
        error_l2=l2,
    )


def narrow_report(report: IntervalDetection, t_fraction: float) -> IntervalDetection:
    """``report`` as :func:`build_interval_report` gives it at a higher ``T``.

    A key alarms at ``T`` exactly when it alarms at every lower ``T`` and
    its error reaches ``T * error_l2``, so one report built at the
    lowest ``T`` of a sweep answers every other ``T`` without touching
    the error summary again.  A ``t_fraction`` whose threshold falls
    below the report's own raises ``ValueError``: the alarms it would add
    were never computed.  A report built with alarming off
    (``t_fraction=None``) has no alarms to narrow.
    """
    threshold = t_fraction * report.error_l2
    if t_fraction < 0 or threshold < report.threshold:
        raise ValueError(
            f"cannot narrow a report at threshold {report.threshold} "
            f"to T={t_fraction} (threshold {threshold})"
        )
    alarms = [
        Alarm(
            interval=alarm.interval,
            key=alarm.key,
            estimated_error=alarm.estimated_error,
            threshold=threshold,
        )
        for alarm in report.alarms
        if abs(alarm.estimated_error) >= threshold
    ]
    return IntervalDetection(
        index=report.index,
        threshold=threshold,
        alarms=alarms,
        top_keys=report.top_keys,
        top_errors=report.top_errors,
        error_l2=report.error_l2,
    )


def alarm_threshold(
    error_summary, t_fraction: float, error_l2: Optional[float] = None
) -> float:
    """Compute ``T_A = T * sqrt(ESTIMATEF2(Se))``.

    The F2 estimate of an error summary can be marginally negative (it is
    unbiased, so small true energies straddle zero); it is clamped at zero,
    making the threshold well defined and conservative.  ``error_l2`` is
    ``error_summary.l2_norm()`` when the caller already holds it.
    """
    if t_fraction < 0:
        raise ValueError(f"t_fraction must be >= 0, got {t_fraction}")
    if error_l2 is None:
        error_l2 = error_summary.l2_norm()
    return t_fraction * error_l2


def alarms_for_interval(
    error_summary,
    candidate_keys: np.ndarray,
    t_fraction: float,
    interval: int = 0,
) -> List[Alarm]:
    """Raise alarms over candidate keys against one interval's error summary.

    The alarms of :func:`build_interval_report` on its own.

    Parameters
    ----------
    error_summary:
        ``Se(t)`` -- sketch or exact.
    candidate_keys:
        Keys to test (the replay stream in the offline detector; future
        keys in the online one).  Deduplicated internally.
    t_fraction:
        The threshold parameter ``T``.
    interval:
        Interval index recorded in the alarms.
    """
    if t_fraction < 0:
        raise ValueError(f"t_fraction must be >= 0, got {t_fraction}")
    keys = dedup_keys(SummaryConvention.as_key_array(candidate_keys))
    return build_interval_report(
        error_summary, keys, interval=interval, t_fraction=t_fraction,
    ).alarms
