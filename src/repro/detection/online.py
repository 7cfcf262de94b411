"""Online single-pass detection using future keys (paper Section 3.3).

The offline detector replays interval ``t``'s keys against ``Se(t)`` -- a
second pass.  Online, the stream cannot be replayed, so this detector uses
the *next* interval's arriving keys as candidates against ``Se(t)``: "use
the keys that appear after Se(t) has been constructed.  This works in both
online and offline context.  The risk is that we will miss those keys that
do not appear again after they experience significant change" -- an
acceptable miss for applications like DoS detection where a key that never
returns can do no further damage.

A sampling rate below 1.0 additionally subsamples the candidate keys
("If we can tolerate the risk of missing some very infrequent keys, we can
sample the (future) input streams").
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

import numpy as np

from repro.detection.session import IntervalSealer
from repro.detection.threshold import IntervalDetection
from repro.detection.twopass import _interval_batches
from repro.forecast.base import Forecaster
from repro.forecast.model_zoo import make_forecaster
from repro.streams.keys import dedup_keys
from repro.streams.model import KeyedUpdates


class OnlineDetector:
    """Single-pass detector: candidates come from the following interval.

    The report for interval ``t`` is therefore emitted one interval late
    (when ``t+1``'s keys have arrived), which is the inherent latency of
    the future-keys strategy.

    Parameters
    ----------
    schema:
        Summary schema (normally a :class:`~repro.sketch.kary.KArySchema`).
    forecaster:
        Forecaster instance or registry name.
    t_fraction:
        Alarm threshold parameter ``T``.
    sample_rate:
        Fraction of future keys used as candidates, in (0, 1].
    seed:
        Seed for the sampling RNG.  The RNG is re-derived from this seed
        at the top of every :meth:`run` (mirroring ``forecaster.reset()``),
        so back-to-back runs over the same input subsample the same
        candidate keys and produce identical reports.  ``None`` opts out
        of reproducibility: each run draws fresh OS entropy.
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder` for stage
        timings (forecast step, report build), candidate/alarm counters
        and ``interval_sealed`` trace events; default is the no-op
        :class:`~repro.obs.recorder.NullRecorder`.
    """

    def __init__(
        self,
        schema,
        forecaster: Union[Forecaster, str],
        t_fraction: float = 0.05,
        sample_rate: float = 1.0,
        seed: Optional[int] = 0,
        recorder=None,
        **model_params,
    ) -> None:
        self.schema = schema
        if isinstance(forecaster, str):
            forecaster = make_forecaster(forecaster, **model_params)
        elif model_params:
            raise ValueError(
                "model_params only apply when forecaster is given by name"
            )
        self.forecaster = forecaster
        if t_fraction < 0:
            raise ValueError(f"t_fraction must be >= 0, got {t_fraction}")
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
        self.t_fraction = float(t_fraction)
        self.sample_rate = float(sample_rate)
        # Report half only: the error summary of interval t must outlive
        # the step (it waits for t+1's keys), so the forecaster steps
        # with fresh allocations below rather than the sealer's scratch.
        self._sealer = IntervalSealer(
            schema, t_fraction=self.t_fraction, key_source="online",
            recorder=recorder,
        )
        self.recorder = self._sealer.recorder
        # Stash the seed so every run() re-derives a fresh RNG from it.
        # Holding only the advanced generator (the old behavior) made a
        # second run() subsample *different* candidates from identical
        # input -- silently non-reproducible reports.
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def _sample(self, keys: np.ndarray) -> np.ndarray:
        if self.sample_rate >= 1.0 or not len(keys):
            return keys
        mask = self._rng.random(len(keys)) < self.sample_rate
        return keys[mask]

    def run(self, batches: Iterable[KeyedUpdates]) -> Iterator[IntervalDetection]:
        """Stream detection reports, each one interval behind arrival.

        Both the forecaster and the candidate-sampling RNG are reset at
        the top, so ``run`` is a pure function of its input: calling it
        twice on the same batches yields identical reports (given a
        non-``None`` seed).  ``batches`` follow
        :meth:`OfflineTwoPassDetector.run`'s contract: one whole interval
        each, in increasing index order, a skipped index seals empty.
        """
        self.forecaster.reset()
        self._rng = np.random.default_rng(self.seed)
        obs = self.recorder
        pending_error = None
        pending_index = -1
        for batch in _interval_batches(batches):
            # New keys arriving now are the candidates for the PREVIOUS
            # interval's error sketch.
            if pending_error is not None:
                yield self._report(
                    pending_index, pending_error,
                    dedup_keys(self._sample(batch.keys)),
                )
            observed = self.schema.from_items(batch.keys, batch.values)
            with obs.time("forecast_step"):
                step = self.forecaster.step(observed)
            pending_error = step.error
            pending_index = batch.index
        # The final interval's error sketch never sees future keys; report
        # it with no candidates so callers know it went unchecked.
        if pending_error is not None:
            yield self._report(
                pending_index, pending_error, np.array([], dtype=np.uint64)
            )

    def _report(
        self, index: int, error, candidates: np.ndarray
    ) -> IntervalDetection:
        self.recorder.count("repro_intervals_sealed_total")
        return self._sealer.report(error, candidates, index)
