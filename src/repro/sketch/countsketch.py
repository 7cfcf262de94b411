"""Count Sketch baseline (Charikar, Chen & Farach-Colton, ICALP 2002).

The paper describes the k-ary sketch as "similar to the count sketch data
structure recently proposed by Charikar et al.  However, the most common
operations on k-ary sketch use simpler operations and are more efficient".
The structural difference: Count Sketch pairs every bucket hash ``h_i`` with
a second *sign* hash ``s_i : [u] -> {-1, +1}`` and updates
``T[i][h_i(a)] += s_i(a) * u``; estimation multiplies the cell by the sign
again.  The sign randomization cancels collision bias, so no mean
correction is needed -- at the cost of one extra hash evaluation per row
per item, which is exactly the overhead the k-ary design removes.

Implemented here so the ablation benchmark can measure both structures'
accuracy (near-identical) and update cost (Count Sketch ~2x hash work) on
the same stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hashing import (
    derive_seeds,
    fused_signed_update,
    gather_indices,
    make_family,
    make_stacked,
)
from repro.sketch.base import HashedSchema, HashedSketch, SummaryConvention


class CountSketchSchema(HashedSchema):
    """Shared bucket and sign hash functions for Count Sketches."""

    kind = "countsketch"

    def __init__(
        self,
        depth: int = 5,
        width: int = 8192,
        seed: Optional[int] = 0,
        family: str = "tabulation",
    ) -> None:
        super().__init__(depth=depth, width=width, seed=seed, family=family)
        # Sign hash: 4-universal into {0, 1}, mapped to {-1, +1}.  Its
        # seeds follow the bucket seeds (seed prefixes are stable) and its
        # range does not depend on the width, so a folded schema keeps
        # the same signs -- folding preserves the signed-update structure,
        # not just the bucket totals.
        self.sign_hashes = tuple(
            make_family(family, 2, seed=s)
            for s in derive_seeds(seed, 2 * self.depth)[self.depth:]
        )
        self._sign_stacked = make_stacked(self.sign_hashes, 2)

    @property
    def bucket_hashes(self) -> tuple:
        """The per-row bucket hash functions (:attr:`hashes`)."""
        return self.hashes

    def signs(self, keys) -> np.ndarray:
        """Sign values in {-1, +1} for ``keys``: shape ``(depth, n)``."""
        keys = SummaryConvention.as_key_array(keys)
        bits = self._sign_stacked.hash_all(keys)
        return (2 * bits - 1).astype(np.float64)


class CountSketch(HashedSketch):
    """Count Sketch with median-of-rows signed estimation."""

    def update_batch(self, keys, values) -> None:
        """Batched signed UPDATE (fused C kernel when compiled).

        Large batches are sharded across the kernel thread pool by
        sketch row; the result is bit-identical to the NumPy fallback
        below at any thread count.
        """
        keys = SummaryConvention.as_key_array(keys)
        values = SummaryConvention.as_value_array(values, len(keys))
        schema = self._schema
        if fused_signed_update(
            schema._stacked, schema._sign_stacked, self._table, keys, values
        ):
            return
        signs = schema.signs(keys)
        indices = schema._stacked.hash_all(keys)
        for i in range(schema.depth):
            np.add.at(self._table[i], indices[i], signs[i] * values)

    def estimate_rows(
        self, keys, indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-row signed estimates ``s_i(a) * T[i][h_i(a)]``: shape ``(H, n)``.

        ``np.median(..., axis=0)`` of this equals :meth:`estimate_batch`
        bit-for-bit; exposed for the detection prescreen (same contract as
        :meth:`repro.sketch.kary.KArySketch.estimate_rows`).
        """
        keys = SummaryConvention.as_key_array(keys)
        if indices is None:
            raw = self._schema._stacked.gather(self._table, keys)
        else:
            raw = gather_indices(self._table, indices)
        signs = self._schema.signs(keys)
        signs *= raw
        return signs

    def estimate_batch(self, keys) -> np.ndarray:
        """Median over rows of ``s_i(a) * T[i][h_i(a)]`` (unbiased)."""
        return np.median(self.estimate_rows(keys), axis=0)

    def estimate_f2(self) -> float:
        """Median over rows of the row sum-of-squares (AMS-style, unbiased).

        With sign randomization each row's ``sum_j T[i][j]**2`` is an
        unbiased F2 estimator -- no mean correction needed, unlike k-ary.
        """
        sum_sq = np.einsum("ij,ij->i", self._table, self._table)
        return float(np.median(sum_sq))


CountSketchSchema.sketch_type = CountSketch
