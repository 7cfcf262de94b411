"""Exact per-flow detection: the accuracy oracle.

Enumerates the trace's key universe, then runs the identical forecast
over dense exact vectors and ranks and thresholds their errors with the
detector's own report,
:func:`~repro.detection.threshold.build_interval_report`, so the two
sides differ only in the sketch's error.  Every accuracy figure in the
paper (Sections 5.1-5.2) is a comparison between this and the sketch
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.detection.pipeline import summarize_stream
from repro.detection.threshold import IntervalDetection, build_interval_report
from repro.forecast.base import Forecaster
from repro.forecast.model_zoo import make_forecaster
from repro.sketch.dense import DenseSchema, DenseVector, KeyIndex
from repro.streams.keys import dedup_keys
from repro.streams.model import KeyedUpdates


@dataclass
class PerFlowResult:
    """Exact per-flow pipeline output over a whole trace.

    Attributes
    ----------
    index:
        The key universe the dense vectors are defined over.
    interval_keys:
        Distinct keys seen in each interval (the candidate sets).
    errors:
        One exact error vector per interval; ``None`` during warm-up.
    energies:
        Exact total energy ``F2(Se(t))`` per interval (``nan`` in warm-up).
    """

    index: KeyIndex
    interval_keys: List[np.ndarray]
    errors: List[Optional[DenseVector]]
    energies: np.ndarray

    def _report(
        self, interval: int, t_fraction: Optional[float] = None, top_n: int = 0
    ) -> IntervalDetection:
        """The detector's report over that interval's keys and exact errors."""
        error = self.errors[interval]
        if error is None:
            raise ValueError(f"interval {interval} is in warm-up")
        return build_interval_report(
            error, self.interval_keys[interval], interval=interval,
            t_fraction=t_fraction, top_n=top_n,
        )

    def top_n(self, interval: int, n: int) -> np.ndarray:
        """Exact top-N keys by absolute error among that interval's keys."""
        return self._report(interval, top_n=n).top_keys

    def threshold_keys(self, interval: int, t_fraction: float) -> np.ndarray:
        """Exact keys that alarm at ``T``: ``|error| >= T * L2`` norm."""
        alarms = self._report(interval, t_fraction=t_fraction).alarms
        return np.array([alarm.key for alarm in alarms], dtype=np.uint64)

    @property
    def total_energy(self) -> float:
        """Sum of exact per-interval error energies (grid-search objective)."""
        return float(np.nansum(self.energies))


def run_per_flow(
    batches: List[KeyedUpdates],
    forecaster: Union[Forecaster, str],
    key_index: Optional[KeyIndex] = None,
    **model_params,
) -> PerFlowResult:
    """Run exact per-flow forecasting over materialized interval batches.

    Parameters
    ----------
    batches:
        Materialized interval stream (list, so it can be traversed twice:
        once to build the key universe, once to summarize).
    forecaster:
        Forecaster instance or registry name (plus ``model_params``).
    key_index:
        Pre-built key universe; built from the batches when omitted.
    """
    if isinstance(forecaster, str):
        forecaster = make_forecaster(forecaster, **model_params)
    elif model_params:
        raise ValueError("model_params only apply when forecaster is given by name")

    if key_index is None:
        key_index = KeyIndex.from_streams([batch.keys for batch in batches])
    schema = DenseSchema(key_index)

    observed = summarize_stream(batches, schema)
    errors: List[Optional[DenseVector]] = []
    energies = np.full(len(batches), np.nan)
    forecaster.reset()
    for step in forecaster.run(observed):
        errors.append(step.error)
        if step.error is not None:
            energies[step.index] = step.error.estimate_f2()

    return PerFlowResult(
        index=key_index,
        interval_keys=[dedup_keys(batch.keys) for batch in batches],
        errors=errors,
        energies=energies,
    )
