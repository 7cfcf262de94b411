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

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.hashing import derive_seeds, make_family
from repro.sketch.base import (
    LinearSummary,
    SummaryConvention,
    folded_width,
    resolve_folded_schema,
)


class GroupTestingSchema:
    """Dimensions and hash functions for group-testing sketches."""

    def __init__(
        self,
        depth: int = 5,
        width: int = 1024,
        key_bits: int = 32,
        seed: Optional[int] = 0,
        family: str = "tabulation",
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if width < 2:
            raise ValueError(f"width must be >= 2, got {width}")
        if not 1 <= key_bits <= 64:
            raise ValueError(f"key_bits must be in [1, 64], got {key_bits}")
        self.depth = int(depth)
        self.width = int(width)
        self.key_bits = int(key_bits)
        self.seed = seed
        self.family = family
        seeds = derive_seeds(seed, depth)
        self.hashes = tuple(make_family(family, width, seed=s) for s in seeds)

    def __eq__(self, other) -> bool:
        """Structural equality: same dimensions, family and *explicit* seed."""
        if self is other:
            return True
        if not isinstance(other, GroupTestingSchema):
            return NotImplemented
        return (
            self.seed is not None
            and other.seed is not None
            and self.seed == other.seed
            and self.depth == other.depth
            and self.width == other.width
            and self.key_bits == other.key_bits
            and self.family == other.family
        )

    def __hash__(self) -> int:
        return hash((self.depth, self.width, self.key_bits, self.family, self.seed))

    def empty(self) -> "GroupTestingSketch":
        """Return a fresh zeroed group-testing sketch."""
        return GroupTestingSketch(self)

    def from_items(self, keys, values) -> "GroupTestingSketch":
        """Build a sketch from arrays of keys and updates."""
        sketch = self.empty()
        sketch.update_batch(keys, values)
        return sketch

    def bucket_indices(self, keys) -> np.ndarray:
        """Bucket index per row for each key: shape ``(depth, n)``."""
        keys = SummaryConvention.as_key_array(keys)
        return np.stack([h.hash_array(keys) for h in self.hashes])

    def folded(self) -> "GroupTestingSchema":
        """The half-width schema this family folds into (same depth/seed)."""
        return type(self)(
            depth=self.depth, width=folded_width(self),
            key_bits=self.key_bits, seed=self.seed, family=self.family,
        )


class GroupTestingSketch(LinearSummary):
    """Sketch with per-bit subcounters enabling direct key decoding.

    Table shape is ``(depth, width, 1 + key_bits)``: slot 0 is the bucket
    total (exactly a k-ary sketch row), slots ``1 + b`` count only updates
    whose key has bit ``b`` set.
    """

    __slots__ = ("_schema", "_table")

    def __init__(self, schema: GroupTestingSchema, table: Optional[np.ndarray] = None):
        self._schema = schema
        shape = (schema.depth, schema.width, 1 + schema.key_bits)
        if table is None:
            table = np.zeros(shape, dtype=np.float64)
        else:
            table = np.asarray(table, dtype=np.float64)
            if table.shape != shape:
                raise ValueError(f"table shape {table.shape} != {shape}")
        self._table = table

    @property
    def schema(self) -> GroupTestingSchema:
        """The schema (dimensions and hash functions)."""
        return self._schema

    @property
    def table(self) -> np.ndarray:
        """Underlying ``(depth, width, 1 + key_bits)`` table (read-only view)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    def copy(self) -> "GroupTestingSketch":
        """Return an independent copy sharing the schema."""
        return GroupTestingSketch(self._schema, self._table.copy())

    def reset(self) -> None:
        """Zero all counters in place."""
        self._table[:] = 0.0

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
        for i, h in enumerate(self._schema.hashes):
            np.add.at(self._table[i], h.hash_array(keys), contributions)

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

    def fold_width(
        self, schema: Optional[GroupTestingSchema] = None
    ) -> "GroupTestingSketch":
        """Halve the width exactly (Hokusai item aggregation).

        The per-bit subcounters are linear, so all ``1 + key_bits``
        subcells of buckets ``j`` and ``j + K/2`` sum into bucket
        ``j mod K/2`` -- the folded table equals the half-width build of
        the same stream (bit-for-bit for integer-valued updates), and
        decoding works unchanged at the coarser collision rate.
        """
        folded = resolve_folded_schema(self._schema, schema)
        half = folded.width
        return GroupTestingSketch(
            folded, self._table[:, :half, :] + self._table[:, half:, :]
        )

    def _linear_combination(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> "GroupTestingSketch":
        table = np.zeros_like(self._table)
        for coeff, summary in terms:
            if not isinstance(summary, GroupTestingSketch):
                raise TypeError(
                    f"cannot combine GroupTestingSketch with {type(summary).__name__}"
                )
            if summary._schema != self._schema:
                raise ValueError("cannot combine sketches with different schemas")
            table += coeff * summary._table
        return GroupTestingSketch(self._schema, table)
