"""Whole-series forecast recursions over a sketch tensor.

The per-object :class:`~repro.forecast.base.Forecaster` protocol steps one
interval at a time, allocating fresh summaries for every linear
combination.  The smoothing-family models (MA, SMA, EWMA, NSHW) have
recursions simple enough to *lift onto the stack*: given a ``(T, H, K)``
tensor of observed tables (a :class:`~repro.sketch.stack.SketchStack` or a
raw ndarray of any ``(T, ...)`` state shape), the functions here produce
the full ``Sf``/``Se`` series with whole-tensor NumPy ops and no per-step
object churn.

Every recursion is an operation-for-operation transliteration of the
corresponding forecaster (same term order, same scalar factors), so the
output is **bit-identical** to running the per-object model over the same
states -- the property the equivalence tests assert and the batched grid
search objective relies on.

ARIMA is intentionally absent: its error-feedback recursion cannot be
expressed as a fixed whole-series stencil, so it keeps the per-object path.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.forecast.smoothing import sma_weights

#: Models the stack engine can vectorize end-to-end.
VECTORIZABLE_MODELS = ("ma", "sma", "ewma", "nshw")


def forecast_first_index(model: str, **params) -> int:
    """Index ``t`` of the first non-warm-up forecast ``Sf(t)``."""
    if model in ("ma", "sma"):
        return int(params["window"])
    if model == "ewma":
        return 1
    if model == "nshw":
        return 2
    raise ValueError(
        f"model {model!r} is not vectorizable; expected one of "
        f"{VECTORIZABLE_MODELS}"
    )


def _as_state_stack(observed) -> np.ndarray:
    """Coerce a SketchStack / sequence-of-sketches / ndarray to ``(T, ...)``."""
    tables = getattr(observed, "tables", None)
    if tables is not None:
        return np.asarray(tables)
    if isinstance(observed, np.ndarray):
        return observed
    first = observed[0]
    if hasattr(first, "table"):
        return np.stack([np.asarray(s.table) for s in observed])
    return np.asarray(observed, dtype=np.float64)


def _ma_forecasts(tables: np.ndarray, window: int) -> np.ndarray:
    t_len = tables.shape[0]
    count = max(t_len - window, 0)
    if count == 0:
        return np.empty((0,) + tables.shape[1:], dtype=np.float64)
    # Reference: acc = h[0]*(1/W); acc = acc + h[i]*(1/W) oldest-to-newest.
    scaled = tables * (1.0 / window)
    out = scaled[0:count].copy()
    for i in range(1, window):
        out += scaled[i : count + i]
    return out


def _sma_forecasts(tables: np.ndarray, window: int) -> np.ndarray:
    t_len = tables.shape[0]
    count = max(t_len - window, 0)
    if count == 0:
        return np.empty((0,) + tables.shape[1:], dtype=np.float64)
    weights = sma_weights(window)
    norm = sum(weights)
    # Reference accumulates newest-first: lag 1 gets weights[0].
    out = tables[window - 1 : t_len - 1] * (weights[0] / norm)
    for lag in range(2, window + 1):
        out += tables[window - lag : t_len - lag] * (weights[lag - 1] / norm)
    return out


def _ewma_forecasts(tables: np.ndarray, alpha: float) -> np.ndarray:
    t_len = tables.shape[0]
    count = max(t_len - 1, 0)
    out = np.empty((count,) + tables.shape[1:], dtype=np.float64)
    if count == 0:
        return out
    one_minus = 1.0 - alpha
    out[0] = tables[0]  # Sf(2) = So(1)
    for t in range(1, count):
        # Sf = So*alpha + Sf_prev*(1-alpha), in exactly this term order.
        np.multiply(tables[t], alpha, out=out[t])
        out[t] += out[t - 1] * one_minus
    return out


def _nshw_forecasts(tables: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    t_len = tables.shape[0]
    count = max(t_len - 2, 0)
    out = np.empty((count,) + tables.shape[1:], dtype=np.float64)
    if count == 0:
        return out
    one_minus_a = 1.0 - alpha
    one_minus_b = 1.0 - beta
    smooth = tables[0].copy()          # Ss(2) = So(1)
    trend = tables[1] - tables[0]      # St(2) = So(2) - So(1)
    np.add(smooth, trend, out=out[0])  # Sf(2) (recursion seed; scored at t=2)
    for t in range(2, t_len - 1):
        forecast = out[t - 2]
        # new_smooth = So*alpha + Sf*(1-alpha), same order as the forecaster.
        new_smooth = tables[t] * alpha
        new_smooth += forecast * one_minus_a
        # trend = (new_smooth - smooth)*beta + trend*(1-beta); the two terms
        # commute bitwise under IEEE addition.
        trend *= one_minus_b
        trend += (new_smooth - smooth) * beta
        smooth = new_smooth
        np.add(smooth, trend, out=out[t - 1])
    return out


def stack_forecasts(model: str, observed, **params) -> Tuple[int, np.ndarray]:
    """All non-warm-up forecasts of ``model`` over a state stack.

    Parameters
    ----------
    model:
        One of :data:`VECTORIZABLE_MODELS`.
    observed:
        ``SketchStack``, sequence of same-schema sketches, or ndarray whose
        leading axis is time.
    params:
        Model parameters (``window`` / ``alpha`` / ``beta``).

    Returns
    -------
    ``(first_index, forecasts)`` where ``forecasts[i]`` is ``Sf(t)`` for
    ``t = first_index + i``, bit-identical to the per-object forecaster.
    """
    tables = _as_state_stack(observed)
    # The in-place recursions need array (not scalar) time slices; lift a
    # plain scalar series to (T, 1) and squeeze back at the end.
    squeeze = tables.ndim == 1
    if squeeze:
        tables = tables[:, None]
    first = forecast_first_index(model, **params)
    if model == "ma":
        forecasts = _ma_forecasts(tables, int(params["window"]))
    elif model == "sma":
        forecasts = _sma_forecasts(tables, int(params["window"]))
    elif model == "ewma":
        forecasts = _ewma_forecasts(tables, float(params["alpha"]))
    else:
        forecasts = _nshw_forecasts(
            tables, float(params["alpha"]), float(params["beta"])
        )
    return first, forecasts[:, 0] if squeeze else forecasts


def stack_errors(model: str, observed, **params) -> Tuple[int, np.ndarray]:
    """All non-warm-up forecast errors ``Se(t) = So(t) - Sf(t)``.

    Same contract as :func:`stack_forecasts`; the subtraction happens in
    place on the forecast buffer, so this allocates nothing extra.
    """
    tables = _as_state_stack(observed)
    first, forecasts = stack_forecasts(model, tables, **params)
    np.subtract(tables[first : first + forecasts.shape[0]], forecasts,
                out=forecasts)
    return first, forecasts
