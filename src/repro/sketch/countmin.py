"""Count-Min sketch baseline (Cormode & Muthukrishnan).

Included as a comparison point for ablation: Count-Min's ``min``-of-rows
estimator is biased upward under cash-register streams (non-negative
updates) and breaks down entirely under turnstile streams with negative
updates, whereas the k-ary sketch's mean-corrected median estimator remains
unbiased.  The ablation benchmark quantifies this on the change-detection
workload, where forecast-error streams are signed by construction.

For signed streams the estimator falls back to the median of raw row cells
(the "Count-Median" variant), which is unbiased up to the +F1/K collision
bias that k-ary's correction removes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hashing import gather_indices
from repro.sketch.base import HashedSchema, HashedSketch, SummaryConvention


class CountMinSchema(HashedSchema):
    """Shared hash functions and dimensions for Count-Min sketches.

    The min estimator divides by nothing, so width 1 is legal.
    """

    kind = "countmin"
    min_width = 1


class CountMinSketch(HashedSketch):
    """Count-Min sketch with min (cash-register) or median (signed) estimation."""

    def update_batch(self, keys, values) -> None:
        """Batched UPDATE via the stacked scatter-add.

        Dispatches to the fused C kernel when compiled, which shards
        large batches across the kernel thread pool by sketch row --
        bit-identical to the serial/NumPy path at any thread count.
        """
        keys = SummaryConvention.as_key_array(keys)
        values = SummaryConvention.as_value_array(values, len(keys))
        self._schema._stacked.scatter_add(self._table, keys, values)

    def estimate_rows(
        self, keys, indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Raw per-row cell reads ``T[i][h_i(a_j)]``: shape ``(depth, n)``.

        The Count-Min analogue of :meth:`KArySketch.estimate_rows` --
        what recovery verification probes uniformly across summary
        types.  Unlike k-ary there is no mean correction: the rows *are*
        the per-row estimates.  ``np.median(rows, axis=0)`` equals
        ``estimate_batch(signed=True)`` bit for bit; note that the
        default (cash-register) estimator is the row *minimum*, so
        ``|median of rows|`` upper-bounds nothing there -- callers doing
        bound-based prescreens should stick to the signed estimator.
        """
        keys = SummaryConvention.as_key_array(keys)
        if indices is None:
            return self._schema._stacked.gather(self._table, keys)
        return gather_indices(self._table, indices)

    def estimate_batch(self, keys, signed: bool = False) -> np.ndarray:
        """Point estimates: row minimum, or row median when ``signed``.

        The classical Count-Min guarantee (``est <= true + eps * F1`` with
        probability ``1 - delta``) only holds for non-negative updates; use
        ``signed=True`` for turnstile streams.
        """
        keys = SummaryConvention.as_key_array(keys)
        raw = self._schema._stacked.gather(self._table, keys)
        if signed:
            return np.median(raw, axis=0)
        return raw.min(axis=0)

    def estimate_f2(self) -> float:
        """Crude F2 upper bound: the minimum row sum-of-squares.

        Count-Min has no unbiased F2 estimator (that is one of the k-ary /
        Count-Sketch advantages); each row's sum of squares over-counts by
        the colliding cross-terms, so the minimum row is the tightest bound
        available from the table alone.
        """
        sum_sq = np.einsum("ij,ij->i", self._table, self._table)
        return float(sum_sq.min())

    def total(self) -> float:
        """Sum of all inserted values (row 0)."""
        return float(self._table[0].sum())


CountMinSchema.sketch_type = CountMinSketch
