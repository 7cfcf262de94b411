"""The grid-search objective: estimated total energy of forecast errors.

"We try to find parameters that minimize the estimated total energy of
forecast errors sum_t F2_est(Se(t))" -- evaluated on sketches so the
search never needs per-flow state.  Warm-up intervals (both the model's
own warm-up and an optional leading exclusion window) are excluded so
models with longer warm-up are not unfairly rewarded with fewer scored
intervals... the paper scores only post-warm-up intervals; we align every
model on the same scored range via ``skip_intervals``.

Three evaluation tiers share one definition of the objective:

* :func:`estimated_total_energy` -- the reference per-object loop over any
  sequence of summaries (sketches, exact vectors, a ``SketchStack``).
* :func:`stack_total_energy` -- the same loop over a raw ``(T, H, K)``
  table tensor with an arbitrary forecaster; ``search_model``'s ``auto``
  objective for models that cannot broadcast (ARIMA).
* :func:`estimated_total_energy_batched` -- scores *many* candidate
  parameter points of one vectorizable model against one stack in a single
  pass; smoothing recursions broadcast over a leading candidate axis
  (blocked to stay cache-resident).  Bit-identical to calling
  :func:`estimated_total_energy` per candidate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.forecast.base import Forecaster
from repro.forecast.vectorized import (
    VECTORIZABLE_MODELS,
    stack_errors,
)
from repro.sketch.stack import tables_estimate_f2

#: Candidates scored concurrently by the broadcast recursions.  Small
#: blocks keep the per-candidate state tensors resident in cache; ~4 was
#: fastest across the measured (T, H, K) shapes.
DEFAULT_CANDIDATE_BLOCK = 4


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
    if skip_intervals < 0:
        raise ValueError(f"skip_intervals must be >= 0, got {skip_intervals}")
    forecaster.reset()
    total = 0.0
    for step in forecaster.run(observed):
        if step.error is None or step.index < skip_intervals:
            continue
        total += max(step.error.estimate_f2(), 0.0)
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


# -- stack-based evaluation ------------------------------------------------


def coerce_tables(observed) -> Optional[Tuple[np.ndarray, int]]:
    """``(tables, width)`` for stack-able observations, else ``None``.

    Accepts a :class:`~repro.sketch.stack.SketchStack`, a sequence of
    same-schema k-ary sketches, or a raw ``(T, H, K)`` ndarray.  Exact
    summaries (``DictVector``) and other non-tabular states return ``None``
    so callers fall back to the per-object path.
    """
    tables = getattr(observed, "tables", None)
    if tables is not None:
        return np.asarray(tables), observed.schema.width
    if isinstance(observed, np.ndarray):
        if observed.ndim != 3:
            return None
        return observed, observed.shape[-1]
    from repro.sketch.kary import KArySketch

    try:
        first = observed[0]
    except (TypeError, KeyError, IndexError):
        return None
    if not isinstance(first, KArySketch):
        return None
    return (
        np.stack([np.asarray(s.table) for s in observed]),
        first.schema.width,
    )


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
    sketch-based reference.  ``search_model(engine="auto")`` scores
    models that cannot broadcast (ARIMA) with it.
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
    block_size: int = DEFAULT_CANDIDATE_BLOCK,
) -> np.ndarray:
    """Score many parameter points of one model against one stack.

    Parameters
    ----------
    observed:
        ``SketchStack``, sequence of same-schema sketches, or ``(T, H, K)``
        ndarray.
    model:
        One of :data:`~repro.forecast.vectorized.VECTORIZABLE_MODELS`.
    candidates:
        Flat parameter dicts (``{"window": w}`` or ``{"alpha": a}`` /
        ``{"alpha": a, "beta": b}``).
    skip_intervals:
        Same leading-exclusion rule as :func:`estimated_total_energy`.
    block_size:
        Candidates evaluated concurrently by the broadcast recursions.

    Returns
    -------
    ``(len(candidates),)`` float64 energies, bit-identical to evaluating
    :func:`estimated_total_energy` per candidate.
    """
    if model not in VECTORIZABLE_MODELS:
        raise ValueError(
            f"model {model!r} cannot be batch-scored; expected one of "
            f"{VECTORIZABLE_MODELS}"
        )
    if skip_intervals < 0:
        raise ValueError(f"skip_intervals must be >= 0, got {skip_intervals}")
    coerced = coerce_tables(observed)
    if coerced is None:
        raise TypeError(
            "observed must be a SketchStack, sequence of k-ary sketches, "
            "or (T, H, K) ndarray"
        )
    tables, width = coerced
    candidates = list(candidates)
    energies = np.zeros(len(candidates), dtype=np.float64)
    if not candidates:
        return energies

    if model in ("ma", "sma"):
        for ci, params in enumerate(candidates):
            first, errors = stack_errors(
                model, tables, window=int(params["window"])
            )
            energies[ci] = _scored_energy(errors, width, first, skip_intervals)
        return energies

    block = max(int(block_size), 1)
    for start in range(0, len(candidates), block):
        chunk = candidates[start : start + block]
        if model == "ewma":
            alphas = np.array([float(p["alpha"]) for p in chunk])
            energies[start : start + len(chunk)] = _ewma_block_energy(
                tables, width, alphas, skip_intervals
            )
        else:  # nshw
            alphas = np.array([float(p["alpha"]) for p in chunk])
            betas = np.array([float(p["beta"]) for p in chunk])
            energies[start : start + len(chunk)] = _nshw_block_energy(
                tables, width, alphas, betas, skip_intervals
            )
    return energies


def _block_f2(errors: np.ndarray, width: int) -> np.ndarray:
    """Per-candidate ESTIMATEF2 of a ``(C, H, K)`` error block."""
    k = width
    sum_sq = np.einsum("chk,chk->ch", errors, errors)
    totals = errors[:, 0, :].sum(axis=1)
    per_row = (k / (k - 1.0)) * sum_sq - (totals * totals)[:, None] / (k - 1.0)
    return np.median(per_row, axis=1)


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
            energies += np.maximum(_block_f2(work, width), 0.0)
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
            energies += np.maximum(_block_f2(work, width), 0.0)
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
