"""Scoring detectors against injected anomaly ground truth.

The paper evaluates sketch-vs-per-flow fidelity; the natural next question
("did we catch the *attack*?") needs labeled data, which the synthetic
substrate provides via :class:`~repro.traffic.anomalies.AnomalyEvent`.
This module turns events into per-(interval, key) labels and sweeps the
detection threshold ``T`` into an ROC-style operating curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.detection.threshold import narrow_report
from repro.detection.twopass import OfflineTwoPassDetector
from repro.traffic.anomalies import AnomalyEvent

Label = Tuple[int, int]  # (interval, key)


def ground_truth_labels(
    events: Iterable[AnomalyEvent],
    n_intervals: int,
    interval_seconds: float,
) -> Set[Label]:
    """All ``(interval, key)`` pairs where an injected anomaly is active."""
    if n_intervals < 0:
        raise ValueError(f"n_intervals must be >= 0, got {n_intervals}")
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
    labels: Set[Label] = set()
    for event in events:
        for t in range(n_intervals):
            if event.overlaps_interval(
                t * interval_seconds, (t + 1) * interval_seconds
            ):
                labels.update((t, int(key)) for key in event.keys)
    return labels


@dataclass(frozen=True)
class OperatingPoint:
    """One threshold's detection performance."""

    t_fraction: float
    true_positives: int
    false_negatives: int
    alarms: int

    @property
    def recall(self) -> float:
        """Fraction of ground-truth (interval, key) labels alarmed."""
        positives = self.true_positives + self.false_negatives
        return self.true_positives / positives if positives else 1.0

    @property
    def precision(self) -> float:
        """Fraction of alarms that hit ground truth.

        Note: background traffic contains genuine statistical changes that
        are not injected anomalies, so precision against *injected* truth
        under-counts; it is still the right metric for comparing
        thresholds on the same trace.
        """
        return self.true_positives / self.alarms if self.alarms else 1.0

    @property
    def false_alarms_per_interval(self) -> float:
        """Raw alarm load attributable to non-injected keys (see caveat)."""
        return float(self.alarms - self.true_positives)


def operating_curve(
    alarm_sets: Dict[float, Set[Label]],
    truth: Set[Label],
    intervals_scored: int,
) -> List[OperatingPoint]:
    """Score per-threshold alarm sets against ground truth.

    Parameters
    ----------
    alarm_sets:
        ``{t_fraction: {(interval, key), ...}}`` from detector sweeps.
    truth:
        Labels from :func:`ground_truth_labels`, restricted by the caller
        to the scored (post-warm-up) intervals.
    intervals_scored:
        Used for the per-interval normalization in reports.
    """
    if intervals_scored <= 0:
        raise ValueError(f"intervals_scored must be > 0, got {intervals_scored}")
    points = []
    for t_fraction in sorted(alarm_sets):
        alarms = alarm_sets[t_fraction]
        tp = len(alarms & truth)
        points.append(
            OperatingPoint(
                t_fraction=t_fraction,
                true_positives=tp,
                false_negatives=len(truth) - tp,
                alarms=len(alarms),
            )
        )
    return points


def sweep_thresholds(
    batches: Sequence,
    schema,
    forecaster_name: str,
    thresholds: Sequence[float],
    skip: int = 0,
    **model_params,
) -> Tuple[Dict[float, Set[Label]], int]:
    """Run the sketch detector once, harvesting alarms at many thresholds.

    Returns ``(alarm_sets, intervals_scored)``.  One detector pass at the
    lowest threshold serves every threshold (alarms at ``T`` are the
    alarms at ``T' < T`` that reach ``T``'s bar, read off by
    :func:`~repro.detection.threshold.narrow_report`), which is what
    makes ROC sweeps cheap.
    """
    if not thresholds:
        raise ValueError("need at least one threshold")
    detector = OfflineTwoPassDetector(
        schema, forecaster_name, t_fraction=min(thresholds), **model_params
    )
    alarm_sets: Dict[float, Set[Label]] = {t: set() for t in thresholds}
    scored = 0
    for report in detector.run(batches):
        if report.index < skip:
            continue
        scored += 1
        for t in thresholds:
            alarm_sets[t].update(
                (report.index, alarm.key)
                for alarm in narrow_report(report, t).alarms
            )
    return alarm_sets, scored
