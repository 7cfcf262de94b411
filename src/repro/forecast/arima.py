"""ARIMA forecasting over linear states (paper Section 3.2.2).

The paper restricts to the orders that matter in practice:

* ``ARIMA0``: ``(p <= 2, d = 0, q <= 2)``
* ``ARIMA1``: ``(p <= 2, d = 1, q <= 2)``

with MA/AR coefficients in ``[-2, 2]`` subject to the model being
*stationary* and *invertible*.  (The paper's displayed equation swaps the
conventional names of the AR and MA coefficient symbols; we use the
standard Box-Jenkins convention below.)

One-step-ahead forecasting of the differenced series
``Z_t = (1 - B)^d S_t``:

    ``Zhat_t = sum_{j=1..p} phi_j Z_{t-j} - sum_{i=1..q} theta_i e_{t-i}``

with innovations ``e_s = Z_s - Zhat_s`` (taken as the zero state before the
model has produced forecasts -- conditional least-squares style).  The
forecast is then undifferenced: for ``d = 1``,
``Sf(t) = S(t-1) + Zhat_t``.

Every operation is linear in past observations, so the recursion runs
unchanged on sketches, exact vectors, arrays or floats.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.forecast.base import Forecaster, combine_terms


def _char_roots(coeffs: Sequence[float]) -> np.ndarray:
    """Roots of ``1 - c1 z - c2 z**2 - ...`` (lag-polynomial convention)."""
    poly = [1.0] + [-float(c) for c in coeffs]
    # Strip trailing zero coefficients so np.roots sees the true degree.
    while len(poly) > 1 and poly[-1] == 0.0:
        poly.pop()
    if len(poly) == 1:
        return np.array([])
    # np.roots wants highest degree first.
    return np.roots(poly[::-1])


def is_stationary(ar: Sequence[float], tolerance: float = 1e-9) -> bool:
    """True when the AR lag polynomial has all roots outside the unit circle."""
    roots = _char_roots(ar)
    return bool(np.all(np.abs(roots) > 1.0 + tolerance)) if roots.size else True


def is_invertible(ma: Sequence[float], tolerance: float = 1e-9) -> bool:
    """True when the MA lag polynomial has all roots outside the unit circle."""
    roots = _char_roots(ma)
    return bool(np.all(np.abs(roots) > 1.0 + tolerance)) if roots.size else True


@dataclass(frozen=True)
class ArimaOrder:
    """An ``(p, d, q)`` order in Box-Jenkins notation."""

    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise ValueError(f"orders must be non-negative, got {self}")

    @property
    def min_history(self) -> int:
        """Observations required before the first forecast.

        ``d`` observations are consumed by differencing; ``p`` more provide
        AR lags.  Pure-MA models (``p = 0``) still need one differenced
        sample so the innovation recursion has something to chew on.
        """
        return self.d + max(self.p, 1)


class ArimaForecaster(Forecaster):
    """ARIMA(p, d, q) with fixed coefficients, over any linear state space.

    Parameters
    ----------
    ar:
        AR coefficients ``phi_1..phi_p`` (may be empty).
    ma:
        MA coefficients ``theta_1..theta_q`` (may be empty).
    d:
        Number of differencing passes (0 or 1 in the paper).
    check_admissible:
        When true (default), reject non-stationary or non-invertible
        coefficient choices -- the paper's "necessary but insufficient"
        range check ``[-2, 2]`` is also enforced implicitly by this.
    """

    def __init__(
        self,
        ar: Sequence[float] = (),
        ma: Sequence[float] = (),
        d: int = 0,
        check_admissible: bool = True,
    ) -> None:
        super().__init__()
        self.ar = tuple(float(c) for c in ar)
        self.ma = tuple(float(c) for c in ma)
        self.order = ArimaOrder(p=len(self.ar), d=int(d), q=len(self.ma))
        if check_admissible:
            if not is_stationary(self.ar):
                raise ValueError(f"AR coefficients {self.ar} are not stationary")
            if not is_invertible(self.ma):
                raise ValueError(f"MA coefficients {self.ma} are not invertible")
        # Raw observation lags needed for differencing (d of them).
        self._raw: deque = deque(maxlen=max(self.order.d, 1))
        # Differenced-series lags Z_{t-1}, ... (newest last).
        self._z: deque = deque(maxlen=max(self.order.p, 1))
        # Innovation lags e_{t-1}, ... (newest last).
        self._errors: deque = deque(maxlen=max(self.order.q, 1))
        self._pending_forecast_z: Optional[Any] = None
        self._zero: Optional[Any] = None  # the zero element of the state space

    # -- helpers -----------------------------------------------------------

    def _difference(self, observed: Any) -> Optional[Any]:
        """Return ``Z_t`` from the raw observation, or ``None`` early on."""
        if self.order.d == 0:
            return observed
        # d == 1 (the paper's maximum): Z_t = S_t - S_{t-1}.
        if not self._raw:
            return None
        return observed - self._raw[-1]

    def _forecast_z(self) -> Optional[Any]:
        """One-step forecast of the differenced series, or ``None``."""
        if len(self._z) < self.order.p or (self.order.p == 0 and not self._z):
            return None
        terms = [(1.0, self._zero)]
        z_list = list(self._z)
        for j, phi in enumerate(self.ar, start=1):
            terms.append((phi, z_list[-j]))
        err_list = list(self._errors)
        for i, theta in enumerate(self.ma, start=1):
            if i <= len(err_list):
                terms.append((-theta, err_list[-i]))
        return combine_terms(terms)

    # -- Forecaster interface ----------------------------------------------

    def forecast(self) -> Optional[Any]:
        if self._pending_forecast_z is None:
            return None
        if self.order.d == 0:
            return self._pending_forecast_z
        # Undifference: Sf(t) = S(t-1) + Zhat_t.
        return self._raw[-1] + self._pending_forecast_z

    def _consume(self, observed: Any) -> None:
        if self._zero is None:
            self._zero = observed * 0.0
        z = self._difference(observed)
        if z is not None:
            # Record the innovation for the forecast we just scored.
            if self._pending_forecast_z is not None:
                self._errors.append(z - self._pending_forecast_z)
            else:
                self._errors.append(self._zero)
            self._z.append(z)
        if self.order.d:
            self._raw.append(observed)
        # Prepare the forecast for the *next* interval.
        self._pending_forecast_z = self._forecast_z()

    def _reset_state(self) -> None:
        self._raw.clear()
        self._z.clear()
        self._errors.clear()
        self._pending_forecast_z = None
        self._zero = None

    def get_config(self) -> dict:
        return {"ar": self.ar, "ma": self.ma, "d": self.order.d}

    def _state_dict(self) -> dict:
        return {
            "raw": list(self._raw),
            "z": list(self._z),
            "errors": list(self._errors),
            "pending_forecast_z": self._pending_forecast_z,
            "zero": self._zero,
        }

    def _load_state_dict(self, state: dict) -> None:
        self._raw.extend(state["raw"])
        self._z.extend(state["z"])
        self._errors.extend(state["errors"])
        self._pending_forecast_z = state["pending_forecast_z"]
        self._zero = state["zero"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArimaForecaster(ar={self.ar}, ma={self.ma}, d={self.order.d})"
        )
