"""Shared experiment machinery: streaming sketch runs and comparisons.

The accuracy figures all reduce to comparing, interval by interval, the
output of the sketch detector against the exact per-flow pipeline.  This
module runs the sketch side through the detector itself
(:class:`~repro.detection.twopass.OfflineTwoPassDetector`, so every
interval closes through the one seal step), streaming -- error sketches
are consumed and discarded immediately; at H=25, K=64K a materialized
4-hour run would hold hundreds of MB of tables -- and keeps only the
small artifacts each figure needs: ranked key lists, over-threshold key
sets and energy series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.detection.perflow import PerFlowResult, run_per_flow
from repro.detection.threshold import narrow_report
from repro.detection.twopass import OfflineTwoPassDetector
from repro.evaluation.metrics import total_energy
from repro.forecast.base import Forecaster
from repro.sketch import KArySchema
from repro.streams.model import KeyedUpdates


@dataclass
class SketchRun:
    """Streamed detector output for the intervals that scored.

    ``ranked_keys[i]`` holds that interval's top-``rank_depth`` keys by
    absolute estimated error (the report's ``top_keys``);
    ``threshold_sets[T][i]`` the keys that alarm at ``T``, whose absolute
    error reached ``T * sqrt(ESTIMATEF2(Se))``; ``energies[i]`` is
    ``ESTIMATEF2(Se)`` clamped at zero, as ``error_l2 ** 2``.
    """

    indices: List[int] = field(default_factory=list)
    energies: List[float] = field(default_factory=list)
    ranked_keys: List[np.ndarray] = field(default_factory=list)
    threshold_sets: Dict[float, List[np.ndarray]] = field(default_factory=dict)

    @property
    def total_energy(self) -> float:
        """``sqrt(sum_t F2est(Se(t)))`` over scored intervals."""
        return total_energy(self.energies)


def run_sketch(
    batches: Sequence[KeyedUpdates],
    schema: KArySchema,
    forecaster: Union[Forecaster, str],
    rank_depth: int = 0,
    thresholds: Sequence[float] = (),
    skip: int = 0,
    **model_params,
) -> SketchRun:
    """Run the sketch detector once, harvesting per-interval artifacts.

    One :class:`~repro.detection.twopass.OfflineTwoPassDetector` alarms
    at the lowest threshold and ranks the top ``rank_depth``; each higher
    threshold's key set is its alarms narrowed by
    :func:`~repro.detection.threshold.narrow_report`.

    Parameters
    ----------
    batches:
        Interval batches of keyed updates.
    schema:
        The sketch schema (H, K, hash functions).
    forecaster:
        Forecaster instance or model name (+ ``model_params``).
    rank_depth:
        Keep this many top keys by absolute error per interval (0: none).
    thresholds:
        ``T`` fractions for which to record over-threshold key sets.
    skip:
        Warm-up intervals excluded from scoring.
    """
    detector = OfflineTwoPassDetector(
        schema,
        forecaster,
        t_fraction=min(thresholds) if thresholds else None,
        top_n=rank_depth,
        **model_params,
    )
    run = SketchRun(threshold_sets={t: [] for t in thresholds})
    for report in detector.run(batches):
        if report.index < skip:
            continue
        run.indices.append(report.index)
        run.energies.append(report.error_l2 ** 2)
        if rank_depth:
            run.ranked_keys.append(report.top_keys)
        for t in thresholds:
            alarms = narrow_report(report, t).alarms
            run.threshold_sets[t].append(
                np.array([alarm.key for alarm in alarms], dtype=np.uint64)
            )
    return run


@dataclass
class PerFlowRun:
    """Exact per-flow artifacts aligned with a :class:`SketchRun`."""

    indices: List[int]
    energies: List[float]
    result: PerFlowResult

    @property
    def total_energy(self) -> float:
        """Exact ``sqrt(sum_t F2(Se(t)))`` over scored intervals."""
        return total_energy(self.energies)

    def top_n(self, interval: int, n: int) -> np.ndarray:
        """Exact top-N keys at an (absolute) interval index."""
        return self.result.top_n(interval, n)

    def threshold_keys(self, interval: int, t: float) -> np.ndarray:
        """Exact over-threshold keys at an (absolute) interval index."""
        return self.result.threshold_keys(interval, t)


def run_perflow(
    batches: Sequence[KeyedUpdates],
    forecaster: Union[Forecaster, str],
    skip: int = 0,
    **model_params,
) -> PerFlowRun:
    """Exact per-flow pipeline with scoring aligned to :func:`run_sketch`."""
    result = run_per_flow(list(batches), forecaster, **model_params)
    indices = [
        i
        for i, err in enumerate(result.errors)
        if err is not None and i >= skip
    ]
    energies = [result.energies[i] for i in indices]
    return PerFlowRun(indices=indices, energies=energies, result=result)


def mean_similarity(
    sketch_lists: Sequence[np.ndarray],
    perflow_lists: Sequence[np.ndarray],
    n: int,
) -> float:
    """Mean over intervals of the paper's ``N_AB / N`` similarity."""
    if len(sketch_lists) != len(perflow_lists):
        raise ValueError(
            f"interval mismatch: {len(sketch_lists)} vs {len(perflow_lists)}"
        )
    if not sketch_lists:
        raise ValueError("no intervals to compare")
    sims = []
    for sk, pf in zip(sketch_lists, perflow_lists):
        pf_set = np.unique(pf)
        sk_set = np.unique(sk)
        denominator = min(n, len(pf_set)) or 1
        overlap = len(np.intersect1d(pf_set, sk_set, assume_unique=True))
        sims.append(overlap / denominator)
    return float(np.mean(sims))


@lru_cache(maxsize=64)
def cached_schema(depth: int, width: int, seed: int = 0) -> KArySchema:
    """Memoized schemas so repeated figures share hash tables."""
    return KArySchema(depth=depth, width=width, seed=seed)
