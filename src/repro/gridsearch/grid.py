"""Multi-pass grid search (paper Section 3.4.2).

Pass one lays a coarse grid over each continuous dimension; each following
pass re-centres a grid of the same arity on the previous best point with
the cell width shrunk by the division factor ("The second pass equally
subdivides range [a0-0.1, a0+0.1] into N=10 parts and repeats the
process").  Integer dimensions are swept exhaustively.  Inadmissible
points (e.g. non-stationary ARIMA coefficients) are skipped.

Scoring a pass
--------------
The search itself is model-agnostic: by default it builds a forecaster
per point and calls ``objective``.  A caller may instead pass
``evaluate_many``, a batch scorer that receives the whole pass's
candidate list at once; :func:`search_model` wires it to
:func:`~repro.gridsearch.objective.estimated_total_energy_batched` for
MA, SMA, EWMA and NSHW, so one sweep over the ``(T, H, K)`` tables
replaces hundreds of per-object forecast runs.  Both score the same
candidate list in the same order to the same floats, so the winning
point (first minimum) is the same either way.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.forecast.base import Forecaster
from repro.obs.recorder import NULL_RECORDER
from repro.gridsearch.objective import (
    BATCHED_MODELS,
    coerce_tables,
    estimated_total_energy,
    estimated_total_energy_batched,
    stack_total_energy,
)
from repro.gridsearch.search_spaces import ParamDict, ParameterSpace


@dataclass
class GridSearchResult:
    """Outcome of a grid search."""

    best_params: ParamDict
    best_energy: float
    evaluations: int
    passes: int

    def build(self, space: ParameterSpace) -> Forecaster:
        """Instantiate the winning forecaster."""
        return space.build(self.best_params)


def _axis(low: float, high: float, divisions: int) -> np.ndarray:
    return np.linspace(low, high, divisions)


def grid_search(
    space: ParameterSpace,
    objective: Callable[[Forecaster], float],
    passes: int = 2,
    evaluate_many: Optional[Callable[[List[ParamDict]], Sequence[float]]] = None,
    recorder=None,
) -> GridSearchResult:
    """Minimize ``objective`` over a parameter space by multi-pass grid.

    Parameters
    ----------
    space:
        The model's parameter space.
    objective:
        Maps a built forecaster to its energy (lower is better); typically
        a closure over pre-built observed sketches calling
        :func:`~repro.gridsearch.objective.estimated_total_energy`.
    passes:
        Grid refinement passes (the paper uses 2).
    evaluate_many:
        Optional batch scorer: maps the full list of admissible candidate
        parameter dicts of a pass to their energies (same order).  When
        given, ``objective`` is not called.
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder`: times each
        refinement pass (``gridsearch_pass`` stage), counts candidate
        evaluations (``repro_gridsearch_evaluations_total``, labelled by
        model) and emits a ``gridsearch_pass`` trace event per pass.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    obs = NULL_RECORDER if recorder is None else recorder

    cont_names = list(space.continuous)
    int_names = list(space.integer)
    # Integer axes never shrink: enumerate them fully every pass.
    int_axes = [
        list(range(low, high + 1)) for low, high in space.integer.values()
    ]

    ranges: Dict[str, Tuple[float, float]] = dict(space.continuous)
    best_params: Optional[ParamDict] = None
    best_energy = float("inf")
    evaluations = 0

    for pass_index in range(passes):
        cont_axes = [
            _axis(*ranges[name], space.divisions) for name in cont_names
        ]
        combos: List[ParamDict] = []
        for combo in itertools.product(*cont_axes, *int_axes):
            params: ParamDict = {}
            for i, name in enumerate(cont_names):
                params[name] = float(combo[i])
            for j, name in enumerate(int_names):
                params[name] = int(combo[len(cont_names) + j])
            if space.is_valid(params):
                combos.append(params)

        with obs.time("gridsearch_pass"):
            energies = _evaluate_candidates(
                space, objective, combos, evaluate_many
            )
        evaluations += len(combos)
        for params, energy in zip(combos, energies):
            if energy < best_energy:
                best_energy = float(energy)
                best_params = params
        if obs.enabled:
            obs.count(
                "repro_gridsearch_evaluations_total", len(combos),
                model=space.model,
            )
            obs.event(
                "gridsearch_pass", model=space.model, index=pass_index,
                candidates=len(combos), best_energy=best_energy,
            )

        if best_params is None:
            raise RuntimeError(
                f"no admissible parameter point found for model {space.model!r}"
            )
        # Zoom each continuous range around the best point.
        new_ranges: Dict[str, Tuple[float, float]] = {}
        for name in cont_names:
            low, high = space.continuous[name]
            cur_low, cur_high = ranges[name]
            half_cell = (cur_high - cur_low) / max(space.divisions - 1, 1)
            centre = best_params[name]
            new_ranges[name] = (
                max(low, centre - half_cell),
                min(high, centre + half_cell),
            )
        ranges = new_ranges

    assert best_params is not None
    return GridSearchResult(
        best_params=best_params,
        best_energy=best_energy,
        evaluations=evaluations,
        passes=passes,
    )


def _evaluate_candidates(
    space: ParameterSpace,
    objective: Callable[[Forecaster], float],
    combos: List[ParamDict],
    evaluate_many: Optional[Callable[[List[ParamDict]], Sequence[float]]],
) -> Sequence[float]:
    if not combos:
        return []
    if evaluate_many is not None:
        energies = list(evaluate_many(combos))
        if len(energies) != len(combos):
            raise ValueError(
                f"evaluate_many returned {len(energies)} energies for "
                f"{len(combos)} candidates"
            )
        return energies
    return [objective(space.build(params)) for params in combos]


def search_model(
    model: str,
    observed: Sequence,
    skip_intervals: int = 0,
    passes: int = 2,
    max_window: int = 10,
    recorder=None,
) -> GridSearchResult:
    """Convenience wrapper: search a model over pre-built observed summaries.

    Uses estimated total energy on the supplied summaries as the objective
    (the paper computes it on H=1, K=8K sketches; pass such sketches in).
    Window-only models (MA, SMA) are swept in one exact pass; ``passes``
    applies to models with continuous parameters.

    When the summaries stack into one ``(T, H, K)`` array (plain k-ary
    sketches over one schema, see
    :func:`~repro.gridsearch.objective.coerce_tables`), MA, SMA, EWMA and
    NSHW candidates are scored a pass at a time by the batched objective
    and ARIMA candidates one by one over the raw tables.  Any other
    summaries -- exact vectors, other sketch kinds -- are scored per
    object by ``estimated_total_energy``.  The energies are the same
    floats either way.

    Parameters
    ----------
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder`, forwarded
        to :func:`grid_search` (pass timings + evaluation counters).
    """
    from repro.gridsearch.search_spaces import build_search_spaces

    spaces = build_search_spaces(max_window)
    try:
        space = spaces[model]
    except KeyError:
        known = ", ".join(sorted(spaces))
        raise ValueError(f"unknown model {model!r}; known: {known}") from None

    # Every candidate re-reads the series, so a one-shot iterable is read
    # once, here.
    if not isinstance(observed, np.ndarray):
        observed = list(observed)
    coerced = coerce_tables(observed)
    evaluate_many = None
    if coerced is not None:
        tables, width = coerced
        objective = functools.partial(
            stack_total_energy, tables, width, skip_intervals=skip_intervals
        )
        if model in BATCHED_MODELS:
            evaluate_many = functools.partial(
                estimated_total_energy_batched,
                tables,
                model,
                skip_intervals=skip_intervals,
            )
    else:
        def objective(forecaster: Forecaster) -> float:
            return estimated_total_energy(observed, forecaster, skip_intervals)

    return grid_search(
        space, objective, passes=passes if space.continuous else 1,
        evaluate_many=evaluate_many, recorder=recorder,
    )
