"""Simple smoothing forecast models: MA, SMA, EWMA (paper Section 3.2.1)."""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional

from repro.forecast.base import Forecaster, combine_terms, owned_copy


class MovingAverageForecaster(Forecaster):
    """Moving average (MA): equal weight to the last ``W`` observations.

    ``Sf(t) = (1/W) * sum_{i=1..W} So(t-i)``.

    (The paper's displayed equation averages past *forecasts*; that is a
    well-known typo in the text -- equal weights "to all past samples" as
    the prose says -- so we average past observations, the standard MA.)

    The first forecast is produced once ``W`` observations are available.
    """

    def __init__(self, window: int) -> None:
        super().__init__()
        if window < 1:
            raise ValueError(f"window W must be >= 1, got {window}")
        self.window = int(window)
        self._history: deque = deque(maxlen=self.window)

    def forecast(self) -> Optional[Any]:
        if len(self._history) < self.window:
            return None
        acc = self._history[0] * (1.0 / self.window)
        for state in list(self._history)[1:]:
            acc = acc + state * (1.0 / self.window)
        return acc

    def _consume(self, observed: Any) -> None:
        self._history.append(observed)

    def _reset_state(self) -> None:
        self._history.clear()

    def get_config(self) -> dict:
        return {"window": self.window}

    def _state_dict(self) -> dict:
        return {"history": list(self._history)}

    def _load_state_dict(self, state: dict) -> None:
        self._history.extend(state["history"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MovingAverageForecaster(window={self.window})"


def sma_weights(window: int) -> List[float]:
    """S-shaped moving-average weights for lags ``1..window`` (1 = newest).

    The paper uses "a subclass that gives equal weights to the most recent
    half of the window, and linearly decayed weights for the earlier half",
    citing the TFRC loss-interval weighting of Floyd et al. [19].  For
    ``window = 8`` this yields ``[1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2]``.
    """
    if window < 1:
        raise ValueError(f"window W must be >= 1, got {window}")
    recent_half = (window + 1) // 2
    decay_steps = window - recent_half
    weights = [1.0] * recent_half
    for step in range(1, decay_steps + 1):
        weights.append(1.0 - step / (decay_steps + 1.0))
    return weights


class SShapedMovingAverageForecaster(Forecaster):
    """S-shaped moving average (SMA): TFRC-style decaying weights.

    ``Sf(t) = sum_i w_i So(t-i) / sum_i w_i`` with :func:`sma_weights`.
    """

    def __init__(self, window: int) -> None:
        super().__init__()
        if window < 1:
            raise ValueError(f"window W must be >= 1, got {window}")
        self.window = int(window)
        self.weights = sma_weights(self.window)
        self._norm = sum(self.weights)
        self._history: deque = deque(maxlen=self.window)

    def forecast(self) -> Optional[Any]:
        if len(self._history) < self.window:
            return None
        # history[-1] is the newest observation = lag 1.
        states = list(self._history)
        acc = None
        for lag, weight in enumerate(self.weights, start=1):
            term = states[-lag] * (weight / self._norm)
            acc = term if acc is None else acc + term
        return acc

    def _consume(self, observed: Any) -> None:
        self._history.append(observed)

    def _reset_state(self) -> None:
        self._history.clear()

    def get_config(self) -> dict:
        return {"window": self.window}

    def _state_dict(self) -> dict:
        return {"history": list(self._history)}

    def _load_state_dict(self, state: dict) -> None:
        self._history.extend(state["history"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SShapedMovingAverageForecaster(window={self.window})"


class EWMAForecaster(Forecaster):
    """Exponentially weighted moving average (EWMA).

    ``Sf(t) = alpha * So(t-1) + (1 - alpha) * Sf(t-1)`` for ``t > 2``, and
    ``Sf(2) = So(1)`` (the paper's initialization).  ``alpha`` in ``[0, 1]``
    weighs new samples against history.
    """

    _STATE_NAMES = ("forecast",)

    def __init__(self, alpha: float) -> None:
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._forecast: Optional[Any] = None

    def forecast(self) -> Optional[Any]:
        return self._forecast

    def _update_statements(self):
        alpha = self.alpha
        return (
            ("forecast", ((alpha, "observed"), (1.0 - alpha, "forecast"))),
        )

    def _consume(self, observed: Any) -> None:
        if self._forecast is None:
            # Sf(2) = So(1), evaluated as the one-term COMBINE 1 * So(1):
            # a fresh summary with So(1)'s bits, which the sweep may then
            # rewrite in place without touching the caller's observation.
            # It is the one COMBINE an EWMA session issues, and the
            # end-to-end tracer's session test asserts a span for it.
            self._forecast = combine_terms([(1.0, observed)])
        else:
            self._apply_update(observed)

    def _reset_state(self) -> None:
        self._forecast = None

    def get_config(self) -> dict:
        return {"alpha": self.alpha}

    def _state_dict(self) -> dict:
        return {"forecast": owned_copy(self._forecast)}

    def _load_state_dict(self, state: dict) -> None:
        self._forecast = owned_copy(state["forecast"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EWMAForecaster(alpha={self.alpha})"
