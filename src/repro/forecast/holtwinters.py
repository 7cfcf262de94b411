"""Holt-Winters forecasters: non-seasonal (paper) and seasonal (extension)."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.forecast.base import Forecaster, combine_terms, owned_copy


class HoltWintersForecaster(Forecaster):
    """Non-seasonal Holt-Winters (NSHW), paper Section 3.2.1.

    Maintains a smoothed level ``Ss`` and a trend ``St``:

    * ``Ss(t) = alpha * So(t-1) + (1 - alpha) * Sf(t-1)``
    * ``St(t) = beta * (Ss(t) - Ss(t-1)) + (1 - beta) * St(t-1)``
    * ``Sf(t) = Ss(t) + St(t)``

    initialized per the paper with ``Ss(2) = So(1)`` and
    ``St(2) = So(2) - So(1)``.  Since the trend initialization consumes the
    second observation, the first forecast usable for change detection is at
    ``t = 3``.

    The state is ``Ss`` and ``St``; ``Sf`` is derived from them whenever
    it is needed, never stored.
    """

    _STATE_NAMES = ("smooth", "trend")

    def __init__(self, alpha: float, beta: float) -> None:
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._first: Optional[Any] = None
        self._smooth: Optional[Any] = None
        self._trend: Optional[Any] = None

    def forecast(self) -> Optional[Any]:
        if self._smooth is None:
            return None
        return self._smooth + self._trend

    def _update_statements(self):
        alpha, beta = self.alpha, self.beta
        level = ((alpha, "observed"), (1.0 - alpha, "forecast"))
        return (
            # Sf(t-1) = Ss(t-1) + St(t-1), the same floats forecast() gives.
            ("forecast", ((1.0, "smooth"), (1.0, "trend"))),
            # Ss(t) - Ss(t-1), summing the new level inline: adding
            # -1 * Ss(t-1) is the same float operation as subtracting it.
            ("delta", level + ((-1.0, "smooth"),)),
            ("smooth", level),
            ("trend", ((beta, "delta"), (1.0 - beta, "trend"))),
        )

    def _consume(self, observed: Any) -> None:
        if self._first is None and self._smooth is None:
            # So(1): becomes the initial level.
            self._first = observed
            return
        if self._smooth is None:
            # So(2): initialize level and trend.  The level is a copy: the
            # sweep rewrites the state in place.
            self._smooth = owned_copy(self._first)
            self._trend = observed - self._first
            self._first = None
            return
        self._apply_update(observed)

    def _reset_state(self) -> None:
        self._first = None
        self._smooth = None
        self._trend = None

    def get_config(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta}

    def _state_dict(self) -> dict:
        # Sf is derived, but checkpoints keep carrying it, so their bytes
        # stay the same; _load_state_dict ignores it.
        return {
            "first": owned_copy(self._first),
            "smooth": owned_copy(self._smooth),
            "trend": owned_copy(self._trend),
            "forecast": self.forecast(),
        }

    def _load_state_dict(self, state: dict) -> None:
        self._first = owned_copy(state["first"])
        self._smooth = owned_copy(state["smooth"])
        self._trend = owned_copy(state["trend"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HoltWintersForecaster(alpha={self.alpha}, beta={self.beta})"


class SeasonalHoltWintersForecaster(Forecaster):
    """Additive seasonal Holt-Winters over linear states (extension).

    The paper's models are all non-seasonal; diurnal traffic has a strong
    daily cycle, and the "ongoing work" section anticipates richer models.
    This extension adds an additive seasonal component with period ``m``:

    * level:    ``L(t) = alpha * (So(t) - C(t-m)) + (1-alpha) * (L(t-1) + B(t-1))``
    * trend:    ``B(t) = beta * (L(t) - L(t-1)) + (1-beta) * B(t-1)``
    * season:   ``C(t) = gamma * (So(t) - L(t)) + (1-gamma) * C(t-m)``
    * forecast: ``Sf(t+1) = L(t) + B(t) + C(t+1-m)``

    All updates are linear in observations, so it runs on sketches.
    Initialization uses the first full season: level = mean of season one,
    trend = zero state, seasonal components = deviations from that mean.
    """

    def __init__(self, alpha: float, beta: float, gamma: float, period: int) -> None:
        super().__init__()
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.period = int(period)
        self._bootstrap: List[Any] = []
        self._level: Optional[Any] = None
        self._trend: Optional[Any] = None
        self._season: List[Any] = []

    def forecast(self) -> Optional[Any]:
        if self._level is None:
            return None
        season_index = self._t % self.period
        return self._level + self._trend + self._season[season_index]

    def _consume(self, observed: Any) -> None:
        if self._level is None:
            self._bootstrap.append(observed)
            if len(self._bootstrap) == self.period:
                mean = self._bootstrap[0] * (1.0 / self.period)
                for state in self._bootstrap[1:]:
                    mean = mean + state * (1.0 / self.period)
                self._level = mean
                self._trend = mean * 0.0
                self._season = [state - mean for state in self._bootstrap]
                self._bootstrap = []
            return
        season_index = self._t % self.period
        prev_level = self._level
        deseasoned = observed - self._season[season_index]
        carried = prev_level + self._trend
        self._level = combine_terms(
            [(self.alpha, deseasoned), (1.0 - self.alpha, carried)]
        )
        delta = self._level - prev_level
        self._trend = combine_terms(
            [(self.beta, delta), (1.0 - self.beta, self._trend)]
        )
        reseasoned = observed - self._level
        self._season[season_index] = combine_terms(
            [(self.gamma, reseasoned), (1.0 - self.gamma, self._season[season_index])]
        )

    def _reset_state(self) -> None:
        self._bootstrap = []
        self._level = None
        self._trend = None
        self._season = []

    def get_config(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "period": self.period,
        }

    def _state_dict(self) -> dict:
        return {
            "bootstrap": list(self._bootstrap),
            "level": self._level,
            "trend": self._trend,
            "season": list(self._season),
        }

    def _load_state_dict(self, state: dict) -> None:
        self._bootstrap = list(state["bootstrap"])
        self._level = state["level"]
        self._trend = state["trend"]
        self._season = list(state["season"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SeasonalHoltWintersForecaster(alpha={self.alpha}, beta={self.beta}, "
            f"gamma={self.gamma}, period={self.period})"
        )
