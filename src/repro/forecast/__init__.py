"""Time-series forecasting models operating on linear stream summaries.

The paper's key architectural move (Section 3.2): because every forecast
model it considers computes a **linear combination of past observations**
(and past forecasts/errors, which are themselves linear in past
observations), the models can be run directly on sketches.  The forecast of
the sketches equals the sketch of the per-flow forecasts.

Implemented models -- the paper's six:

=============  =======================================  =================
Name           Class                                    Parameters
=============  =======================================  =================
``ma``         :class:`MovingAverageForecaster`         window ``W``
``sma``        :class:`SShapedMovingAverageForecaster`  window ``W``
``ewma``       :class:`EWMAForecaster`                  ``alpha``
``nshw``       :class:`HoltWintersForecaster`           ``alpha, beta``
``arima0``     :class:`ArimaForecaster` (d=0)           ``ar, ma, d=0``
``arima1``     :class:`ArimaForecaster` (d=1)           ``ar, ma, d=1``
=============  =======================================  =================

plus :class:`SeasonalHoltWintersForecaster` (additive seasonality), listed
by the paper as the natural extension for diurnal traffic.

Every forecaster is *state-agnostic*: observations may be
:class:`~repro.sketch.kary.KArySketch`, exact
:class:`~repro.sketch.exact.DictVector`, plain NumPy arrays, or floats --
anything supporting ``+``, ``-`` and scalar ``*``.
"""

from repro.forecast.arima import (
    ArimaForecaster,
    ArimaOrder,
    is_invertible,
    is_stationary,
)
from repro.forecast.base import Forecaster, ForecastStep
from repro.forecast.fitting import (
    ArmaFit,
    fit_ar,
    fit_arima,
    fit_arma,
    fit_ewma,
    fit_holt_winters,
)
from repro.forecast.holtwinters import (
    HoltWintersForecaster,
    SeasonalHoltWintersForecaster,
)
from repro.forecast.model_zoo import (
    MODEL_NAMES,
    default_parameters,
    make_forecaster,
)
from repro.forecast.smoothing import (
    EWMAForecaster,
    MovingAverageForecaster,
    SShapedMovingAverageForecaster,
    sma_weights,
)

__all__ = [
    "ArimaForecaster",
    "ArimaOrder",
    "ArmaFit",
    "fit_ar",
    "fit_arima",
    "fit_arma",
    "fit_ewma",
    "fit_holt_winters",
    "EWMAForecaster",
    "ForecastStep",
    "Forecaster",
    "HoltWintersForecaster",
    "MODEL_NAMES",
    "MovingAverageForecaster",
    "SShapedMovingAverageForecaster",
    "SeasonalHoltWintersForecaster",
    "default_parameters",
    "is_invertible",
    "is_stationary",
    "make_forecaster",
    "sma_weights",
]
