"""Forecast-model parameter selection (paper Section 3.4.2).

The objective is the *estimated total energy* of forecast errors,
``sum_t ESTIMATEF2(Se(t))``, computed with a cheap sketch (the paper fixes
H=1, K=8K during search) -- avoiding any per-flow work.  Continuous
parameters are found by multi-pass grid search (each pass zooms into the
best cell of the previous one); integral parameters (window sizes) by
direct sweep; ARIMA coefficient grids are filtered for
stationarity/invertibility.
"""

from repro.gridsearch.factorial import (
    FactorialEffect,
    full_factorial,
    screening_report,
    yates,
)
from repro.gridsearch.grid import (
    GridSearchResult,
    grid_search,
    search_model,
)
from repro.gridsearch.objective import (
    coerce_tables,
    estimated_total_energy,
    estimated_total_energy_batched,
    per_interval_energies,
    stack_total_energy,
)
from repro.gridsearch.search_spaces import (
    SEARCH_SPACES,
    ParameterSpace,
    arima_coefficient_grid,
    random_parameters,
)

__all__ = [
    "FactorialEffect",
    "GridSearchResult",
    "ParameterSpace",
    "SEARCH_SPACES",
    "arima_coefficient_grid",
    "coerce_tables",
    "estimated_total_energy",
    "estimated_total_energy_batched",
    "full_factorial",
    "grid_search",
    "per_interval_energies",
    "random_parameters",
    "screening_report",
    "search_model",
    "stack_total_energy",
    "yates",
]
