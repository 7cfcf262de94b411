"""Count-Min sketch baseline (Cormode & Muthukrishnan).

Included as a comparison point for ablation: Count-Min's ``min``-of-rows
estimator is biased upward under cash-register streams (non-negative
updates) and breaks down entirely under turnstile streams with negative
updates, whereas the k-ary sketch's mean-corrected median estimator remains
unbiased.  The ablation benchmark quantifies this on the change-detection
workload, where forecast-error streams are signed by construction.

ESTIMATE is the median of the raw row cells (the "Count-Median" variant),
correct for turnstile (signed) streams like every summary's ESTIMATE, and
unbiased up to the +F1/K collision bias that k-ary's correction removes.
The cash-register minimum is ``estimate_rows(keys).min(axis=0)``.
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
    """Count-Min sketch; ESTIMATE is the row median (turnstile-correct)."""

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
        :meth:`estimate_batch` bit for bit, and ``rows.min(axis=0)`` is
        the cash-register estimate.
        """
        keys = SummaryConvention.as_key_array(keys)
        if indices is None:
            return self._schema._stacked.gather(self._table, keys)
        return gather_indices(self._table, indices)

    def estimate_batch(self, keys) -> np.ndarray:
        """Point estimates: the median of the raw row cells.

        Correct for turnstile (signed) streams, such as the forecast
        error ``Se(t)``.  The classical Count-Min guarantee
        (``true <= est <= true + eps * F1`` with probability
        ``1 - delta``) is the row minimum's, for non-negative updates
        only: ``estimate_rows(keys).min(axis=0)``.
        """
        return np.median(self.estimate_rows(keys), axis=0)

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
