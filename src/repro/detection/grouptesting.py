"""Combinatorial group-testing sketch: key recovery without a key stream.

Paper Section 3.3's fourth alternative for obtaining change keys:
"incorporate combinatorial group testing into sketches [Cormode &
Muthukrishnan, PODC 2003].  This allows one to directly infer keys from
the (modified) sketch data structure without requiring a separate stream
of keys.  However, this scheme also increases the update and estimation
costs".

Each ``(row, bucket)`` cell holds ``1 + key_bits`` counters: the bucket
total plus one counter per key bit position, incremented only when the
key has that bit set.  The structure stays **linear**, so the forecasting
module applies unchanged; the forecast-error group-testing sketch can then
be *decoded*: any bucket dominated by a single large-change key reveals
that key bit-by-bit (bit ``b`` of the culprit is 1 iff the bit-``b``
counter holds the majority of the bucket total's magnitude).

The cost trade-off the paper warns about is explicit here: UPDATE touches
``1 + key_bits`` counters per row instead of 1.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.sketch.base import HashedSchema, HashedSketch, SummaryConvention


class GroupTestingSchema(HashedSchema):
    """Dimensions and hash functions for group-testing sketches."""

    kind = "grouptesting"

    def __init__(
        self,
        depth: int = 5,
        width: int = 1024,
        key_bits: int = 32,
        seed: Optional[int] = 0,
        family: str = "tabulation",
    ) -> None:
        super().__init__(depth=depth, width=width, seed=seed, family=family)
        if not 1 <= key_bits <= 64:
            raise ValueError(f"key_bits must be in [1, 64], got {key_bits}")
        self.key_bits = int(key_bits)

    @classmethod
    def from_config(cls, depth, width, seed, family, key_bits=0):
        return cls(
            depth=depth, width=width, key_bits=key_bits, seed=seed,
            family=family,
        )

    @property
    def table_shape(self) -> tuple:
        """``(depth, width, 1 + key_bits)``: a total and one counter per bit."""
        return (self._depth, self._width, 1 + self.key_bits)


class GroupTestingSketch(HashedSketch):
    """Sketch with per-bit subcounters enabling direct key decoding.

    Table shape is ``(depth, width, 1 + key_bits)``: slot 0 is the bucket
    total (exactly a k-ary sketch row), slots ``1 + b`` count only updates
    whose key has bit ``b`` set.
    """

    def update_batch(self, keys, values) -> None:
        keys = SummaryConvention.as_key_array(keys)
        values = SummaryConvention.as_value_array(values, len(keys))
        if not len(keys):
            return
        bits = np.arange(self._schema.key_bits, dtype=np.uint64)
        # bit_matrix[j, b] = 1 if bit b of key j is set
        bit_matrix = ((keys[:, None] >> bits[None, :]) & np.uint64(1)).astype(
            np.float64
        )
        contributions = np.concatenate(
            [values[:, None], values[:, None] * bit_matrix], axis=1
        )
        indices = self._schema._stacked.hash_all(keys)
        for i in range(self._schema.depth):
            np.add.at(self._table[i], indices[i], contributions)

    # -- k-ary-equivalent estimation over the totals plane -----------------

    def _totals(self) -> np.ndarray:
        return self._table[:, :, 0]

    def total(self) -> float:
        """Sum of all inserted values."""
        return float(self._totals()[0].sum())

    def estimate_batch(self, keys) -> np.ndarray:
        """Per-key estimate using the totals plane (same math as k-ary)."""
        indices = self._schema.bucket_indices(keys)
        k = self._schema.width
        raw = np.take_along_axis(self._totals(), indices, axis=1)
        per_row = (raw - self.total() / k) / (1.0 - 1.0 / k)
        return np.median(per_row, axis=0)

    def estimate_f2(self) -> float:
        """Second-moment estimate from the totals plane (same math as k-ary)."""
        k = self._schema.width
        totals = self._totals()
        sum_sq = np.einsum("ij,ij->i", totals, totals)
        total = self.total()
        per_row = (k / (k - 1.0)) * sum_sq - (total * total) / (k - 1.0)
        return float(np.median(per_row))

    # -- decoding -----------------------------------------------------------

    def recover_keys(
        self, threshold: float, verify: bool = True
    ) -> Dict[int, float]:
        """Decode keys whose (error) magnitude is at least ``threshold``.

        For every bucket whose total magnitude reaches ``threshold``, decode
        a candidate key bit-by-bit: bit ``b`` is 1 when the bit-``b``
        counter carries more of the bucket's mass than its complement.
        Candidates are then optionally verified -- re-hashed and checked
        against a median estimate -- which suppresses buckets whose mass
        comes from several colliding keys (their decoded bits are garbage).

        Returns a dict of ``key -> estimated value``.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        candidates: Dict[int, float] = {}
        bits = self._schema.key_bits
        for i in range(self._schema.depth):
            totals = self._table[i, :, 0]
            hot = np.nonzero(np.abs(totals) >= threshold)[0]
            for bucket in hot:
                total = totals[bucket]
                bit_counters = self._table[i, bucket, 1:]
                bit_set = np.abs(bit_counters) > np.abs(total - bit_counters)
                key = 0
                for b in range(bits):
                    if bit_set[b]:
                        key |= 1 << b
                candidates.setdefault(key, float(total))
        if not candidates:
            return {}
        keys = np.fromiter(candidates.keys(), dtype=np.uint64, count=len(candidates))
        estimates = self.estimate_batch(keys)
        recovered: Dict[int, float] = {}
        indices = self._schema.bucket_indices(keys) if verify else None
        for j, (key, est) in enumerate(zip(keys.tolist(), estimates.tolist())):
            if abs(est) < threshold:
                continue
            if verify:
                # The decoded key must land in a bucket whose total is
                # consistent with the estimate in every row; a majority of
                # rows within 50% relative deviation passes.
                consistent = 0
                for i in range(self._schema.depth):
                    bucket_total = self._table[i, indices[i, j], 0]
                    if abs(bucket_total - est) <= 0.5 * abs(est) + 1e-9:
                        consistent += 1
                if consistent * 2 <= self._schema.depth:
                    continue
            recovered[int(key)] = est
        return recovered


GroupTestingSchema.sketch_type = GroupTestingSketch
