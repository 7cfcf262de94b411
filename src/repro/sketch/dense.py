"""Dense exact vectors over a fixed key index: the fast per-flow baseline.

Per-flow analysis over a known key universe is dramatically faster with a
dense NumPy vector than with a dictionary: an offline evaluation first
enumerates the trace's distinct keys into a :class:`KeyIndex`, then every
interval's observed state is a dense float64 vector and all forecasting
arithmetic is vectorized.

This mirrors how one would actually run the paper's per-flow comparison
offline, and is what makes whole-paper experiment sweeps feasible in
Python.  :class:`DenseVector` implements the same
:class:`~repro.sketch.base.LinearSummary` interface as the sketches, so
the identical pipeline code runs in exact space.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sketch.base import LinearSummary, SummaryConvention, accumulate_arrays


class KeyIndex:
    """Immutable sorted index of a key universe, with O(log n) lookup."""

    def __init__(self, keys) -> None:
        keys = SummaryConvention.as_key_array(keys)
        self._keys = np.unique(keys)

    @classmethod
    def from_streams(cls, batches) -> "KeyIndex":
        """Build an index from an iterable of per-interval key arrays."""
        chunks = [SummaryConvention.as_key_array(b) for b in batches]
        if not chunks:
            return cls(np.array([], dtype=np.uint64))
        return cls(np.concatenate(chunks))

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def keys(self) -> np.ndarray:
        """The sorted key universe (read-only view)."""
        view = self._keys.view()
        view.flags.writeable = False
        return view

    def positions(self, keys) -> np.ndarray:
        """Map keys to dense positions; raises ``KeyError`` on unknown keys."""
        keys = SummaryConvention.as_key_array(keys)
        pos = np.searchsorted(self._keys, keys)
        pos_clipped = np.minimum(pos, len(self._keys) - 1) if len(self._keys) else pos
        if len(self._keys) == 0 or not np.all(self._keys[pos_clipped] == keys):
            missing = (
                keys[self._keys[pos_clipped] != keys][:5]
                if len(self._keys)
                else keys[:5]
            )
            raise KeyError(f"keys not in index (first few): {missing.tolist()}")
        return pos_clipped

    def contains(self, keys) -> np.ndarray:
        """Boolean mask of which keys are present in the index."""
        keys = SummaryConvention.as_key_array(keys)
        if len(self._keys) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return self._keys[pos] == keys


class DenseSchema:
    """Schema for dense exact vectors over a shared :class:`KeyIndex`."""

    def __init__(self, index: KeyIndex) -> None:
        self.index = index

    def empty(self) -> "DenseVector":
        """Return an all-zeros vector over the index."""
        return DenseVector(self.index)

    def from_items(self, keys, values) -> "DenseVector":
        """Build a vector from arrays of keys and updates."""
        vec = self.empty()
        vec.update_batch(keys, values)
        return vec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseSchema(universe={len(self.index)})"


class DenseVector(LinearSummary):
    """Exact keyed vector with dense float64 storage over a KeyIndex."""

    __slots__ = ("_index", "_values")

    def __init__(self, index: KeyIndex, values: Optional[np.ndarray] = None) -> None:
        self._index = index
        if values is None:
            values = np.zeros(len(index), dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (len(index),):
                raise ValueError(
                    f"values shape {values.shape} does not match index "
                    f"size {len(index)}"
                )
        self._values = values

    @property
    def index(self) -> KeyIndex:
        """The key universe this vector is defined over."""
        return self._index

    @property
    def values(self) -> np.ndarray:
        """Dense value array aligned with ``index.keys`` (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def update_batch(self, keys, values) -> None:
        keys = SummaryConvention.as_key_array(keys)
        values = SummaryConvention.as_value_array(values, len(keys))
        pos = self._index.positions(keys)
        np.add.at(self._values, pos, values)

    def estimate_batch(self, keys) -> np.ndarray:
        """Exact totals for an array of keys."""
        pos = self._index.positions(keys)
        return self._values[pos]

    def estimate_f2(self) -> float:
        return float(self._values @ self._values)

    def total(self) -> float:
        """Exact sum of all updates."""
        return float(self._values.sum())

    def top_n(self, n: int, absolute: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Top ``n`` keys by (absolute) value: ``(keys, values)`` descending.

        Ties broken by key for determinism.
        """
        magnitudes = np.abs(self._values) if absolute else self._values
        order = np.lexsort((self._index.keys, -magnitudes))
        chosen = order[:n]
        return self._index.keys[chosen], self._values[chosen]

    def _check_terms(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> list:
        arrays = []
        for coeff, summary in terms:
            if not isinstance(summary, DenseVector):
                raise TypeError(
                    f"cannot combine DenseVector with {type(summary).__name__}"
                )
            if summary._index is not self._index:
                raise ValueError("cannot combine vectors over different key indexes")
            arrays.append((float(coeff), summary._values))
        return arrays

    def _linear_combination(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> "DenseVector":
        result = DenseVector(self._index)
        accumulate_arrays(result._values, self._check_terms(terms))
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseVector(universe={len(self._index)}, total={self.total():.6g})"
