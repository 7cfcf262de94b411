"""Online model recalibration (paper Section 6, "Online change detection").

The paper's evaluation fixes forecast parameters offline; its ongoing-work
list proposes "periodically recomputing the forecast model parameters
using history data to keep up with changes in overall traffic behavior".

:class:`AdaptiveDetector` implements that: it keeps a sliding window of
recent *observed sketches* (cheap -- H=1 search sketches, not the full
detection sketches), and every ``recalibrate_every`` intervals re-runs the
multi-pass grid search over that window to refresh the forecast model's
parameters.  Detection itself runs exactly like the offline two-pass
detector; only the parameter source changes.

The search window uses small dedicated sketches so recalibration cost does
not scale with the detection sketch size.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.detection.session import IntervalSealer
from repro.detection.threshold import IntervalDetection
from repro.detection.twopass import _interval_batches
from repro.forecast.model_zoo import make_forecaster
from repro.gridsearch.grid import grid_search
from repro.gridsearch.objective import estimated_total_energy
from repro.gridsearch.search_spaces import build_search_spaces
from repro.sketch import KArySchema
from repro.streams.keys import dedup_keys
from repro.streams.model import KeyedUpdates


class AdaptiveDetector:
    """Sketch change detector with periodic online parameter refresh.

    Parameters
    ----------
    schema:
        Detection sketch schema (the big, accurate one).
    model:
        Forecast model name from the registry.
    t_fraction:
        Alarm threshold parameter ``T``.
    window:
        How many recent intervals of (small) observed sketches to keep for
        recalibration.
    recalibrate_every:
        Re-run grid search after this many intervals (and once initially,
        as soon as the window holds ``min_history`` intervals).
    min_history:
        Smallest window content that justifies a search.
    search_width:
        ``K`` of the small search sketches (paper: grid search ran at
        H=1, K=8192).
    """

    def __init__(
        self,
        schema: KArySchema,
        model: str = "ewma",
        t_fraction: float = 0.05,
        window: int = 24,
        recalibrate_every: int = 6,
        min_history: int = 6,
        search_width: int = 8192,
        search_passes: int = 2,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if recalibrate_every < 1:
            raise ValueError(
                f"recalibrate_every must be >= 1, got {recalibrate_every}"
            )
        if not 2 <= min_history <= window:
            raise ValueError(
                f"min_history must be in [2, window], got {min_history}"
            )
        self.schema = schema
        self.model = model
        self.t_fraction = float(t_fraction)
        self.window = int(window)
        self.recalibrate_every = int(recalibrate_every)
        self.min_history = int(min_history)
        self.search_passes = int(search_passes)
        # Each recalibration rebuilds the forecaster; the sealer holds the
        # current one (None until the first fit, and at the top of a run).
        self._sealer = IntervalSealer(schema, t_fraction=self.t_fraction)
        self._search_schema = KArySchema(depth=1, width=search_width, seed=1)
        self._space = build_search_spaces()[model]
        self._history: Deque = deque(maxlen=window)
        self._detection_history: Deque = deque(maxlen=window)
        self._params: Optional[Dict[str, object]] = None
        self._param_log: List[tuple] = []
        # Relative cadence: intervals processed since the last refresh.
        # Keying the schedule off the *absolute* batch index recalibrated
        # on multiples of recalibrate_every regardless of when the
        # initial fit happened -- a stream starting at index 5 with
        # recalibrate_every=6 would fit at 5 and immediately refit at 6.
        self._intervals_since_refresh = 0

    @property
    def parameter_log(self) -> List[tuple]:
        """``(interval, params)`` for every recalibration performed."""
        return list(self._param_log)

    @property
    def current_parameters(self) -> Optional[Dict[str, object]]:
        """The parameters currently driving detection (None before first fit)."""
        return dict(self._params) if self._params is not None else None

    def _recalibrate(self, interval: int) -> None:
        history = list(self._history)

        def objective(forecaster):
            return estimated_total_energy(history, forecaster)

        passes = self.search_passes if self._space.continuous else 1
        result = grid_search(self._space, objective, passes=passes)
        self._params = self._space.to_model_kwargs(result.best_params)
        self._param_log.append((interval, dict(self._params)))
        self._intervals_since_refresh = 0

    def run(self, batches: Iterable[KeyedUpdates]) -> Iterator[IntervalDetection]:
        """Detect over a stream, refreshing model parameters periodically.

        The forecaster is rebuilt and *replayed over the history window*
        after each recalibration, so its state reflects the new parameters
        without a cold restart.  ``batches`` follow
        :meth:`OfflineTwoPassDetector.run`'s contract: one whole interval
        each, in increasing index order, a skipped index seals empty.
        """
        sealer = self._sealer
        sealer.forecaster = None
        for batch in _interval_batches(batches):
            search_observed = self._search_schema.from_items(batch.keys, batch.values)
            observed = self.schema.from_items(batch.keys, batch.values)

            due = (
                len(self._history) >= self.min_history
                and (
                    self._params is None
                    or self._intervals_since_refresh >= self.recalibrate_every
                )
            )
            if due:
                self._recalibrate(batch.index)
                sealer.forecaster = None  # rebuild with the fresh parameters

            report = None
            if self._params is not None:
                if sealer.forecaster is None:
                    sealer.forecaster = make_forecaster(self.model, **self._params)
                    # Warm the new model on the retained detection history.
                    for past in self._detection_history:
                        sealer.forecaster.observe(past)
                # A copy: the seal writes Se over it; the history keeps So.
                keys = dedup_keys(batch.keys)
                report = sealer.seal(observed.copy(), keys, batch.index)

            self._history.append(search_observed)
            self._detection_history.append(observed)
            self._intervals_since_refresh += 1
            if report is not None:
                yield report
