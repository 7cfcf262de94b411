"""The grid-search objective: estimated total energy of forecast errors.

"We try to find parameters that minimize the estimated total energy of
forecast errors sum_t F2_est(Se(t))" -- evaluated on sketches so the
search never needs per-flow state.  Warm-up intervals (both the model's
own warm-up and an optional leading exclusion window) are excluded so
models with longer warm-up are not unfairly rewarded with fewer scored
intervals... the paper scores only post-warm-up intervals; we align every
model on the same scored range via ``skip_intervals``.

The objective is defined once, by :func:`per_interval_energies` over any
sequence of summaries.  Over one ``(T, H, K)`` array of k-ary tables it
is also computed two faster ways, each bit-identical to it:

* :func:`stack_total_energy` -- any forecaster, one candidate at a time,
  stepped over the raw tables (``search_model`` scores ARIMA with it);
* :func:`estimated_total_energy_batched` -- many candidate points of MA,
  SMA, EWMA or NSHW at once: the window models as one stencil over the
  whole series per candidate, the smoothing recursions broadcast over a
  leading candidate axis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.forecast.base import Forecaster
from repro.forecast.smoothing import sma_weights
from repro.sketch.kary import KArySketch, tables_estimate_f2

#: Models :func:`estimated_total_energy_batched` scores.
BATCHED_MODELS = ("ma", "sma", "ewma", "nshw")

#: Candidates the broadcast recursions score together.  Small blocks keep
#: the per-candidate state tensors resident in cache; ~4 was fastest
#: across the measured (T, H, K) shapes.
_CANDIDATE_BLOCK = 4


def estimated_total_energy(
    observed: Sequence,
    forecaster: Forecaster,
    skip_intervals: int = 0,
) -> float:
    """``sum_t ESTIMATEF2(Se(t))`` over intervals ``>= skip_intervals``.

    Parameters
    ----------
    observed:
        Pre-built observed summaries, one per interval (sketches during
        search; exact vectors when validating the search).
    forecaster:
        The candidate model (reset before use).
    skip_intervals:
        Score only intervals with index at or beyond this -- the "set aside
        the first hour of the four hour data sets for model warmup" rule.
        Models whose own warm-up extends past this still score the
        intervals they cover; see note below.

    Notes
    -----
    Intervals where the model is still warming up contribute nothing.  To
    compare models fairly, choose ``skip_intervals`` no smaller than the
    longest warm-up among the candidates (the paper's one-hour exclusion
    dominates every model's warm-up at both 300 s and 60 s intervals).
    """
    total = 0.0
    for energy in per_interval_energies(observed, forecaster, skip_intervals):
        total += energy
    return total


def per_interval_energies(
    observed: Sequence,
    forecaster: Forecaster,
    skip_intervals: int = 0,
) -> List[float]:
    """Per-interval ``ESTIMATEF2(Se(t))`` (clamped at 0) for scored intervals."""
    if skip_intervals < 0:
        raise ValueError(f"skip_intervals must be >= 0, got {skip_intervals}")
    forecaster.reset()
    energies: List[float] = []
    for step in forecaster.run(observed):
        if step.error is None or step.index < skip_intervals:
            continue
        energies.append(max(step.error.estimate_f2(), 0.0))
    return energies


# -- scoring over one (T, H, K) array ----------------------------------------


def coerce_tables(observed) -> Optional[Tuple[np.ndarray, int]]:
    """``(tables, width)`` when ``observed`` stacks into one array, else ``None``.

    Accepts a raw ``(T, H, K)`` ndarray, or a non-empty sequence of plain
    k-ary sketches over one schema.  Anything else -- exact vectors,
    invertible, Count-Min or Count Sketch summaries, sketches whose hash
    functions differ -- returns ``None``, so callers take the per-object
    path, which combines (or refuses to combine) it as it always does.
    """
    if isinstance(observed, np.ndarray):
        return (observed, observed.shape[-1]) if observed.ndim == 3 else None
    try:
        schema = observed[0].schema
    except (TypeError, KeyError, IndexError, AttributeError):
        return None
    if not all(type(s) is KArySketch and s.schema == schema for s in observed):
        return None
    return np.stack([s.table for s in observed]), schema.width


def stack_total_energy(
    tables: np.ndarray,
    width: int,
    forecaster: Forecaster,
    skip_intervals: int = 0,
) -> float:
    """:func:`estimated_total_energy` over a raw table tensor.

    Runs an arbitrary forecaster directly on the ``(H, K)`` ndarrays of a
    stack (forecasters are state-agnostic), computing each scored
    interval's ESTIMATEF2 with the k-ary estimator.  Results equal the
    sketch-based reference.  :func:`~repro.gridsearch.grid.search_model`
    scores the models the batched objective does not cover (ARIMA) with
    it.
    """
    if skip_intervals < 0:
        raise ValueError(f"skip_intervals must be >= 0, got {skip_intervals}")
    forecaster.reset()
    total = 0.0
    for t in range(tables.shape[0]):
        observed = tables[t]
        predicted = forecaster.forecast()
        if predicted is not None and t >= skip_intervals:
            error = observed - predicted
            total += max(float(tables_estimate_f2(error, width)), 0.0)
        forecaster.observe(observed)
    return total


def _scored_energy(
    errors: np.ndarray, width: int, first_index: int, skip_intervals: int
) -> float:
    """Sequentially accumulate clamped F2 over scored error intervals."""
    start = max(skip_intervals - first_index, 0)
    if start >= errors.shape[0]:
        return 0.0
    f2 = tables_estimate_f2(errors[start:], width)
    total = 0.0
    for value in f2:
        total += max(float(value), 0.0)
    return total


def estimated_total_energy_batched(
    observed,
    model: str,
    candidates: Sequence[Dict],
    skip_intervals: int = 0,
) -> np.ndarray:
    """Score many parameter points of one model against one stack.

    Parameters
    ----------
    observed:
        Sequence of plain k-ary sketches over one schema, or a
        ``(T, H, K)`` ndarray (see :func:`coerce_tables`).
    model:
        One of :data:`BATCHED_MODELS`.
    candidates:
        Flat parameter dicts (``{"window": w}`` or ``{"alpha": a}`` /
        ``{"alpha": a, "beta": b}``).
    skip_intervals:
        Same leading-exclusion rule as :func:`estimated_total_energy`.

    Returns
    -------
    ``(len(candidates),)`` float64 energies, bit-identical to evaluating
    :func:`estimated_total_energy` per candidate.
    """
    if model not in BATCHED_MODELS:
        raise ValueError(
            f"model {model!r} cannot be batch-scored; expected one of "
            f"{BATCHED_MODELS}"
        )
    if skip_intervals < 0:
        raise ValueError(f"skip_intervals must be >= 0, got {skip_intervals}")
    coerced = coerce_tables(observed)
    if coerced is None:
        raise TypeError(
            "observed must be a sequence of plain k-ary sketches over one "
            "schema, or a (T, H, K) ndarray"
        )
    tables, width = coerced
    candidates = list(candidates)
    energies = np.zeros(len(candidates), dtype=np.float64)
    if not candidates:
        return energies

    if model in ("ma", "sma"):
        for ci, params in enumerate(candidates):
            window = int(params["window"])
            errors = _window_errors(tables, model, window)
            energies[ci] = _scored_energy(errors, width, window, skip_intervals)
        return energies

    for start in range(0, len(candidates), _CANDIDATE_BLOCK):
        chunk = candidates[start : start + _CANDIDATE_BLOCK]
        alphas = np.array([float(p["alpha"]) for p in chunk])
        if model == "ewma":
            block = _ewma_block_energy(tables, width, alphas, skip_intervals)
        else:  # nshw
            betas = np.array([float(p["beta"]) for p in chunk])
            block = _nshw_block_energy(
                tables, width, alphas, betas, skip_intervals
            )
        energies[start : start + len(chunk)] = block
    return energies


def _window_errors(tables: np.ndarray, model: str, window: int) -> np.ndarray:
    """MA's or SMA's ``Se(t)`` for every ``t >= window``, as one stencil.

    Each forecast adds the same terms in the same order as the
    forecaster's, so the errors are bit-identical to stepping it.
    """
    t_len = tables.shape[0]
    count = t_len - window
    if count <= 0:
        return tables[:0]
    if model == "ma":
        # acc = h[0]*(1/W), then acc + h[i]*(1/W), oldest to newest.
        scaled = tables * (1.0 / window)
        out = scaled[0:count].copy()
        for i in range(1, window):
            out += scaled[i : count + i]
    else:
        # Newest first: lag 1 takes weights[0].
        weights = sma_weights(window)
        norm = sum(weights)
        out = tables[window - 1 : t_len - 1] * (weights[0] / norm)
        for lag in range(2, window + 1):
            out += tables[window - lag : t_len - lag] * (weights[lag - 1] / norm)
    # The forecasts become the errors in place.
    np.subtract(tables[window:], out, out=out)
    return out


def _ewma_block_energy(
    tables: np.ndarray, width: int, alphas: np.ndarray, skip: int
) -> np.ndarray:
    """Total energies for a block of EWMA alphas in one streamed pass."""
    t_len = tables.shape[0]
    c_len = len(alphas)
    shape = (c_len,) + tables.shape[1:]
    energies = np.zeros(c_len, dtype=np.float64)
    if t_len < 2:
        return energies
    alpha = alphas[:, None, None]
    one_minus = 1.0 - alpha
    forecast = np.broadcast_to(tables[0], shape).copy()  # Sf(2) = So(1)
    work = np.empty(shape, dtype=np.float64)
    for t in range(1, t_len):
        if t >= skip:
            np.subtract(tables[t], forecast, out=work)
            energies += np.maximum(tables_estimate_f2(work, width), 0.0)
        if t == t_len - 1:
            break
        # Sf = So*alpha + Sf_prev*(1-alpha): the two addends commute
        # bitwise, so accumulate into the forecast buffer in place.
        np.multiply(tables[t], alpha, out=work)
        forecast *= one_minus
        forecast += work
    return energies


def _nshw_block_energy(
    tables: np.ndarray,
    width: int,
    alphas: np.ndarray,
    betas: np.ndarray,
    skip: int,
) -> np.ndarray:
    """Total energies for a block of NSHW (alpha, beta) points."""
    t_len = tables.shape[0]
    c_len = len(alphas)
    shape = (c_len,) + tables.shape[1:]
    energies = np.zeros(c_len, dtype=np.float64)
    if t_len < 3:
        return energies
    alpha = alphas[:, None, None]
    beta = betas[:, None, None]
    one_minus_a = 1.0 - alpha
    one_minus_b = 1.0 - beta
    smooth = np.broadcast_to(tables[0], shape).copy()
    trend = np.broadcast_to(tables[1] - tables[0], shape).copy()
    forecast = smooth + trend
    work = np.empty(shape, dtype=np.float64)
    scratch = np.empty(shape, dtype=np.float64)
    for t in range(2, t_len):
        if t >= skip:
            np.subtract(tables[t], forecast, out=work)
            energies += np.maximum(tables_estimate_f2(work, width), 0.0)
        if t == t_len - 1:
            break
        # new_smooth = So*alpha + Sf*(1-alpha), reference term order.
        np.multiply(tables[t], alpha, out=work)
        np.multiply(forecast, one_minus_a, out=scratch)
        work += scratch
        # trend = (new_smooth - smooth)*beta + trend*(1-beta): the two terms
        # commute bitwise under IEEE addition.
        np.subtract(work, smooth, out=scratch)
        scratch *= beta
        trend *= one_minus_b
        trend += scratch
        smooth[...] = work
        np.add(smooth, trend, out=forecast)
    return energies
