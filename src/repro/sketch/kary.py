"""The k-ary sketch (paper Section 3.1).

A k-ary sketch is an ``H x K`` table of counters.  Row ``i`` is paired with
an independent 4-universal hash function ``h_i : [u] -> [K]``.  The four
operations defined by the paper:

UPDATE(S, a, u)
    ``T[i][h_i(a)] += u`` for every row ``i``.

ESTIMATE(S, a)
    Per-row unbiased estimate ``v_a^{h_i} = (T[i][h_i(a)] - sum(S)/K) /
    (1 - 1/K)``, then the **median** across rows.  The subtraction removes
    the expected contribution of colliding keys; the ``1 - 1/K`` factor
    re-scales after removing the key's own share of the mean (Theorem 1
    shows unbiasedness with variance ``<= F2 / (K - 1)``).

ESTIMATEF2(S)
    Per-row ``F2^{h_i} = K/(K-1) * sum_j T[i][j]**2 - 1/(K-1) * sum(S)**2``,
    then the median across rows (Theorem 4: unbiased, variance
    ``<= 8 F2**2 / (K - 1)``).

COMBINE(c_1, S_1, ..., c_l, S_l)
    Entry-wise linear combination -- sketches form a vector space, which is
    what allows the forecasting module to run entirely in sketch space.

Design notes
------------
* Hash functions live in a :class:`KArySchema` shared by every sketch of an
  experiment.  Sharing is semantic (only same-schema sketches may be
  combined or compared) and practical (tabulation tables are ~2 MiB per
  row).
* Counters are ``float64``: turnstile updates are integral, but forecast
  sketches are fractional linear combinations of past sketches.
* ``K >= 2`` is required; the estimator divides by ``K - 1``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hashing import gather_indices
from repro.sketch.base import HashedSchema, HashedSketch, SummaryConvention


class KArySchema(HashedSchema):
    """Immutable description of a k-ary sketch family: ``(H, K, hashes)``.

    Every sketch produced by :meth:`empty` shares these hash functions, so
    they can be combined, differenced, and compared cell-for-cell.

    Parameters
    ----------
    depth:
        Number of hash functions / table rows ``H``.  The paper uses
        ``H in {1, 5, 9, 25}``; odd values make the median unambiguous.
    width:
        Hash table size ``K``.  The paper explores ``K`` from 1024 to 64K.
    seed:
        Master seed; per-row seeds are derived deterministically.
    family:
        Hash family name (``"tabulation"``, ``"polynomial"``, or
        ``"two-universal"`` for ablations).
    """

    kind = "kary"

    def bucket_indices(self, keys) -> np.ndarray:
        """Hash ``keys`` with every row function: shape ``(H, n)`` int64.

        This is the stacked fast path -- one vectorized pass over the batch
        computes all ``H`` rows (for tabulation: three gathers into
        interleaved pre-reduced strips plus two XORs), bit-identical to
        evaluating the per-row functions one by one.  The detection
        report hashes its candidate keys once with it and reads their
        rows through :meth:`KArySketch.estimate_rows`.  Defined on this
        class, not only inherited, so a profiler can wrap the k-ary
        prescreen's hashing here alone.
        """
        return super().bucket_indices(keys)


class KArySketch(HashedSketch):
    """One k-ary sketch instance: an ``H x K`` counter table over a schema."""

    # -- UPDATE ------------------------------------------------------------

    def update_batch(self, keys, values) -> None:
        """UPDATE for a batch: ``T[i][h_i(a_j)] += u_j`` for all rows, items.

        All ``H`` rows are served by one stacked pass (fused hash +
        scatter-add when the C kernel is available, sharded across the
        kernel thread pool by sketch row for large batches); repeated
        keys within the batch accumulate correctly, and the resulting
        table is bit-identical to per-row ``np.add.at`` over
        ``schema.hashes`` at any thread count.
        """
        keys = SummaryConvention.as_key_array(keys)
        values = SummaryConvention.as_value_array(values, len(keys))
        self._schema._stacked.scatter_add(self._table, keys, values)

    # -- ESTIMATE ----------------------------------------------------------

    def total(self) -> float:
        """``sum(S)``: the sum of all values inserted into the sketch.

        Every row holds the same total, so row 0 suffices (as in the paper's
        definition of ``sum(S)``).
        """
        return float(self._table[0].sum())

    def estimate_rows(
        self, keys, indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-row unbiased estimates ``v_a^{h_i}``: shape ``(H, n)``.

        ``np.median(estimate_rows(keys), axis=0)`` equals
        :meth:`estimate_batch` bit-for-bit; exposing the rows lets callers
        compute exact bounds on the median (``|median| <= max_i |row_i|``)
        from one gather and defer the median to surviving keys only -- the
        detection prescreen (:mod:`repro.detection.threshold`).

        Parameters
        ----------
        keys:
            Keys to reconstruct.
        indices:
            Optional precomputed ``schema.bucket_indices(keys)`` to avoid
            re-hashing when several sketches are probed with one key set.
        """
        keys = SummaryConvention.as_key_array(keys)
        if indices is None:
            # raw[i, j] = T[i][h_i(a_j)], fused hash + gather.
            raw = self._schema._stacked.gather(self._table, keys)
        else:
            raw = gather_indices(self._table, indices)
        k = self._schema.width
        mean_share = self.total() / k
        raw -= mean_share
        raw /= 1.0 - 1.0 / k
        return raw

    def estimate_batch(self, keys) -> np.ndarray:
        """ESTIMATE for a batch of keys: median of per-row unbiased estimates.

        When the compiled kernels are available the whole pipeline --
        hash, the per-row unbiased transform, and the median across rows
        -- runs fused in C, one pass per key, with no ``(H, n)``
        intermediate.  The result is bit-identical to the NumPy reference
        either way.
        """
        keys = SummaryConvention.as_key_array(keys)
        k = self._schema.width
        mean_share = self.total() / k
        denom = 1.0 - 1.0 / k
        fused = self._schema._stacked.estimate_median(
            self._table, keys, mean_share, denom
        )
        if fused is not None:
            return fused
        return np.median(self.estimate_rows(keys), axis=0)

    # -- ESTIMATEF2 --------------------------------------------------------

    def estimate_f2(self) -> float:
        """ESTIMATEF2: median of per-row unbiased second-moment estimates."""
        return float(np.median(_f2_rows(self._table, self._schema.width)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KArySketch(H={self._schema.depth}, K={self._schema.width}, "
            f"total={self.total():.6g})"
        )


KArySchema.sketch_type = KArySketch


def _f2_rows(tables: np.ndarray, width: int) -> np.ndarray:
    """Per-row F2 estimates of every ``(H, K)`` table: shape ``(..., H)``.

    Row ``i`` gives ``K/(K-1) * sum_j T[i][j]**2 - sum(S)**2 / (K-1)``,
    with ``sum(S)`` read from row 0.  This is the one implementation of
    the estimator: :meth:`KArySketch.estimate_f2` takes the median of its
    table's rows, and :func:`tables_estimate_f2` of every table's in an
    array, so both give the same floats.
    """
    tables = np.asarray(tables, dtype=np.float64)
    k = int(width)
    if tables.shape[-1] != k:
        raise ValueError(f"table width {tables.shape[-1]} != {k}")
    sum_sq = np.einsum("...k,...k->...", tables, tables)
    totals = tables[..., 0, :].sum(axis=-1)
    return (k / (k - 1.0)) * sum_sq - (totals * totals)[..., None] / (k - 1.0)


def tables_estimate_f2(tables: np.ndarray, width: int) -> np.ndarray:
    """ESTIMATEF2 of every ``(H, K)`` table in an ``(..., H, K)`` array.

    The grid search scores whole series and candidate blocks of error
    tables with it; each value equals the table's
    :meth:`KArySketch.estimate_f2` bit for bit.
    """
    return np.median(_f2_rows(tables, width), axis=-1)
