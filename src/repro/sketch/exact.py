"""Exact per-key vectors: the per-flow ground truth.

Every accuracy experiment in the paper compares sketch output against exact
per-flow analysis.  :class:`DictVector` implements the same
:class:`~repro.sketch.base.LinearSummary` interface as the sketches -- so
the identical forecasting and change-detection pipeline can run in *exact*
space simply by swapping the schema -- but stores true per-key totals in a
dictionary.

This is precisely the thing the paper argues does not scale ("keeping
per-flow state is either too expensive or too slow"); here it is the oracle
that accuracy is measured against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sketch.base import LinearSummary, SummaryConvention


class ExactSchema:
    """Schema counterpart for exact summaries.

    Exists so exact and sketched pipelines are interchangeable: both expose
    ``empty()`` and ``from_items()``.  Carries no hash state.
    """

    def empty(self) -> "DictVector":
        """Return an empty exact vector."""
        return DictVector()

    def from_items(self, keys, values) -> "DictVector":
        """Build an exact vector from arrays of keys and updates."""
        vec = self.empty()
        vec.update_batch(keys, values)
        return vec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ExactSchema()"


class DictVector(LinearSummary):
    """Exact keyed vector over the turnstile model.

    Supports the full linear-summary interface with zero error:
    ``estimate`` returns the true total and ``estimate_f2`` the true second
    moment.  Keys that were never updated (or whose total has been cancelled
    to exactly zero by negative updates) report 0.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Optional[Dict[int, float]] = None) -> None:
        self._data: Dict[int, float] = dict(data) if data else {}

    # -- updates -----------------------------------------------------------

    def update_batch(self, keys, values) -> None:
        keys = SummaryConvention.as_key_array(keys)
        values = SummaryConvention.as_value_array(values, len(keys))
        if not len(keys):
            return
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=values, minlength=len(uniq))
        data = self._data
        for key, total in zip(uniq.tolist(), sums.tolist()):
            data[key] = data.get(key, 0.0) + total

    # -- queries -----------------------------------------------------------

    def estimate_batch(self, keys) -> np.ndarray:
        """Exact totals for an array of keys."""
        keys = SummaryConvention.as_key_array(keys)
        data = self._data
        return np.array([data.get(k, 0.0) for k in keys.tolist()], dtype=np.float64)

    def estimate_f2(self) -> float:
        """The true second moment ``sum_a v_a**2``."""
        values = np.fromiter(self._data.values(), dtype=np.float64, count=len(self._data))
        return float(values @ values)

    def total(self) -> float:
        """The exact sum of all updates."""
        return float(sum(self._data.values()))

    # -- container behaviour -------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: int) -> bool:
        return int(key) in self._data

    def __getitem__(self, key: int) -> float:
        return self._data.get(int(key), 0.0)

    def keys(self) -> Iterator[int]:
        """Iterate over keys that have received at least one update."""
        return iter(self._data.keys())

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(key, total)`` pairs."""
        return iter(self._data.items())

    def key_array(self) -> np.ndarray:
        """All touched keys as a uint64 array."""
        return np.fromiter(self._data.keys(), dtype=np.uint64, count=len(self._data))

    def top_n(self, n: int) -> List[Tuple[int, float]]:
        """The ``n`` keys with largest absolute value, descending.

        Ties are broken by key so the ordering is deterministic.
        """
        ranked = sorted(
            self._data.items(), key=lambda kv: (-abs(kv[1]), kv[0])
        )
        return ranked[:n]

    def compact(self, tolerance: float = 0.0) -> None:
        """Drop entries whose absolute value is ``<= tolerance``.

        Turnstile streams with negative updates can cancel keys back to
        zero; compaction keeps the dictionary proportional to the number of
        live keys.
        """
        self._data = {
            k: v for k, v in self._data.items() if abs(v) > tolerance
        }

    # -- linearity -----------------------------------------------------------

    def _sum_terms_into(
        self, out: Dict[int, float], terms: Sequence[Tuple[float, LinearSummary]]
    ) -> None:
        for coeff, summary in terms:
            if not isinstance(summary, DictVector):
                raise TypeError(
                    f"cannot combine DictVector with {type(summary).__name__}"
                )
            for key, value in summary._data.items():
                out[key] = out.get(key, 0.0) + coeff * value

    def _linear_combination(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> "DictVector":
        out: Dict[int, float] = {}
        self._sum_terms_into(out, terms)
        return DictVector(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DictVector(len={len(self._data)}, total={self.total():.6g})"
