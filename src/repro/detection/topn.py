"""Top-N reconstruction: rank keys by absolute forecast error.

Section 5.2.1 of the paper evaluates sketches by comparing the top-N flows
(by absolute forecast error) reconstructed from the error sketch against
the exact per-flow top-N.  This module provides that ranking for any
summary type.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.detection.threshold import build_interval_report
from repro.sketch.base import SummaryConvention
from repro.streams.keys import dedup_keys


def top_n_keys(
    error_summary,
    candidate_keys: np.ndarray,
    n: int,
    return_estimates: bool = False,
):
    """The ``n`` candidate keys with largest absolute estimated error.

    The top-N ranking of :func:`build_interval_report` on its own.

    Parameters
    ----------
    error_summary:
        Any summary supporting ``estimate_batch`` (error sketch or exact
        error vector).
    candidate_keys:
        Keys to rank; duplicates are collapsed first.
    n:
        How many to return (fewer if there are fewer candidates).
    return_estimates:
        When true, also return the signed estimated errors.

    Returns
    -------
    ``keys`` sorted by decreasing ``|error|`` (ties broken by key), or the
    tuple ``(keys, estimates)`` when ``return_estimates`` is set.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    keys = dedup_keys(SummaryConvention.as_key_array(candidate_keys))
    report = build_interval_report(
        error_summary, keys, interval=0, t_fraction=None, top_n=n,
    )
    if return_estimates:
        return report.top_keys, report.top_errors
    return report.top_keys


def similarity(set_a: np.ndarray, set_b: np.ndarray, n: Optional[int] = None) -> float:
    """The paper's similarity metric ``N_AB / N``.

    ``N_AB`` is the overlap between the two key sets; ``N`` defaults to the
    size of the smaller set (the paper's usage: per-flow top-N vs sketch
    top-X*N is normalized by N, the per-flow list size).
    """
    a = np.unique(np.asarray(set_a, dtype=np.uint64))
    b = np.unique(np.asarray(set_b, dtype=np.uint64))
    if n is None:
        n = min(len(a), len(b))
    if n == 0:
        return 1.0
    overlap = len(np.intersect1d(a, b, assume_unique=True))
    return overlap / n
