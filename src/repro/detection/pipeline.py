"""The summarize -> forecast -> error engine.

One pipeline serves both worlds: pass a
:class:`~repro.sketch.kary.KArySchema` and you get the paper's
sketch-based change detection; pass a
:class:`~repro.sketch.dense.DenseSchema` (or
:class:`~repro.sketch.exact.ExactSchema`) and you get exact per-flow
analysis.  Because forecasters are state-agnostic, the *same* forecaster
code runs in both -- which is the paper's linearity argument made
executable.

The helpers are deliberately decomposed so experiment sweeps can reuse
work: ``summarize_stream`` is the expensive part (hashing every record)
and is computed once per schema, while ``forecast_error_stream`` (cheap
table arithmetic) runs once per model parameter point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional

import numpy as np

from repro.forecast.base import Forecaster
from repro.streams.keys import dedup_keys
from repro.streams.model import KeyedUpdates


@dataclass
class PipelineStep:
    """Everything the detection layer needs about one interval."""

    index: int
    keys: np.ndarray          # distinct keys observed during the interval
    observed: Any             # So(t) summary
    forecast: Optional[Any]   # Sf(t) or None during warm-up
    error: Optional[Any]      # Se(t) or None during warm-up

    @property
    def in_warmup(self) -> bool:
        """True while the forecast model has not yet produced output."""
        return self.error is None


def summarize_stream(batches: Iterable[KeyedUpdates], schema) -> List[Any]:
    """Build the observed summary ``So(t)`` for every interval.

    ``schema`` is any object with ``from_items(keys, values)`` --
    KArySchema, DenseSchema, ExactSchema, CountMinSchema, ...
    """
    return [schema.from_items(batch.keys, batch.values) for batch in batches]


def interval_key_sets(batches: Iterable[KeyedUpdates]) -> List[np.ndarray]:
    """Distinct keys per interval -- the replay input for pass two."""
    return [dedup_keys(batch.keys) for batch in batches]


def forecast_error_stream(
    observed: Iterable[Any], forecaster: Forecaster
) -> Iterator[PipelineStep]:
    """Run a forecaster over precomputed summaries, yielding error states.

    ``keys`` is left empty in the yielded steps; callers that need replay
    keys should zip with :func:`interval_key_sets` (kept separate so the
    same key sets serve many model configurations).
    """
    forecaster.reset()
    empty = np.array([], dtype=np.uint64)
    for step in forecaster.run(observed):
        yield PipelineStep(
            index=step.index,
            keys=empty,
            observed=step.observed,
            forecast=step.forecast,
            error=step.error,
        )


def run_pipeline(
    batches: Iterable[KeyedUpdates], schema, forecaster: Forecaster
) -> Iterator[PipelineStep]:
    """Streaming end-to-end pipeline: summarize and forecast in one pass.

    Unlike the decomposed helpers, this holds only O(model state) summaries
    in memory, making it the right entry point for long traces and the
    online detector.
    """
    forecaster.reset()
    for batch in batches:
        observed = schema.from_items(batch.keys, batch.values)
        step = forecaster.step(observed)
        yield PipelineStep(
            index=batch.index,
            keys=dedup_keys(batch.keys),
            observed=observed,
            forecast=step.forecast,
            error=step.error,
        )
