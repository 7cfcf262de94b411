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

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.hashing import (
    derive_seeds,
    fused_signed_update,
    gather_indices,
    make_family,
    make_stacked,
)
from repro.sketch.base import (
    LinearSummary,
    SummaryConvention,
    accumulate_arrays,
    folded_width,
    resolve_folded_schema,
)


class CountSketchSchema:
    """Shared bucket and sign hash functions for Count Sketches."""

    def __init__(
        self,
        depth: int = 5,
        width: int = 8192,
        seed: Optional[int] = 0,
        family: str = "tabulation",
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if width < 2:
            raise ValueError(f"width must be >= 2, got {width}")
        self.depth = int(depth)
        self.width = int(width)
        self.seed = seed
        self.family = family
        seeds = derive_seeds(seed, 2 * depth)
        self.bucket_hashes = tuple(
            make_family(family, width, seed=s) for s in seeds[:depth]
        )
        # Sign hash: 4-universal into {0, 1}, mapped to {-1, +1}.
        self.sign_hashes = tuple(
            make_family(family, 2, seed=s) for s in seeds[depth:]
        )
        self._bucket_stacked = make_stacked(self.bucket_hashes, width)
        self._sign_stacked = make_stacked(self.sign_hashes, 2)

    def __eq__(self, other) -> bool:
        """Structural equality: same dimensions, family and *explicit* seed."""
        if self is other:
            return True
        if not isinstance(other, CountSketchSchema):
            return NotImplemented
        return (
            self.seed is not None
            and other.seed is not None
            and self.seed == other.seed
            and self.depth == other.depth
            and self.width == other.width
            and self.family == other.family
        )

    def __hash__(self) -> int:
        return hash((self.depth, self.width, self.family, self.seed))

    def empty(self) -> "CountSketch":
        """Return a fresh zeroed Count Sketch."""
        return CountSketch(self)

    def from_items(self, keys, values) -> "CountSketch":
        """Build a sketch from arrays of keys and updates."""
        sketch = self.empty()
        sketch.update_batch(keys, values)
        return sketch

    def bucket_indices(self, keys) -> np.ndarray:
        """Bucket indices for ``keys``: shape ``(depth, n)``."""
        keys = SummaryConvention.as_key_array(keys)
        return self._bucket_stacked.hash_all(keys)

    def signs(self, keys) -> np.ndarray:
        """Sign values in {-1, +1} for ``keys``: shape ``(depth, n)``."""
        keys = SummaryConvention.as_key_array(keys)
        bits = self._sign_stacked.hash_all(keys)
        return (2 * bits - 1).astype(np.float64)

    def folded(self) -> "CountSketchSchema":
        """The half-width schema this family folds into (same depth/seed).

        The sign hashes are derived from ``seeds[depth:]`` into a fixed
        range of 2 regardless of width, so the folded schema's signs are
        identical -- folding preserves the signed-update structure, not
        just the bucket totals.
        """
        return type(self)(
            depth=self.depth, width=folded_width(self),
            seed=self.seed, family=self.family,
        )


class CountSketch(LinearSummary):
    """Count Sketch with median-of-rows signed estimation."""

    __slots__ = ("_schema", "_table")

    def __init__(self, schema: CountSketchSchema, table: Optional[np.ndarray] = None):
        self._schema = schema
        if table is None:
            table = np.zeros((schema.depth, schema.width), dtype=np.float64)
        else:
            table = np.ascontiguousarray(table, dtype=np.float64)
            if table.shape != (schema.depth, schema.width):
                raise ValueError(
                    f"table shape {table.shape} does not match schema "
                    f"({schema.depth}, {schema.width})"
                )
        self._table = table

    @property
    def schema(self) -> CountSketchSchema:
        """The schema this sketch was built from."""
        return self._schema

    @property
    def table(self) -> np.ndarray:
        """Underlying counter table (read-only view)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    def copy(self) -> "CountSketch":
        """Return an independent copy sharing the schema."""
        return CountSketch(self._schema, self._table.copy())

    def reset(self) -> None:
        """Zero all counters in place."""
        self._table[:] = 0.0

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
            schema._bucket_stacked, schema._sign_stacked, self._table, keys, values
        ):
            return
        signs = schema.signs(keys)
        indices = schema._bucket_stacked.hash_all(keys)
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
            raw = self._schema._bucket_stacked.gather(self._table, keys)
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

    def fold_width(
        self, schema: Optional[CountSketchSchema] = None
    ) -> "CountSketch":
        """Halve the width exactly (Hokusai item aggregation).

        Bucket indices fold as for k-ary (width-``K`` index mod ``K/2``),
        and the sign hashes are width-independent (see
        :meth:`CountSketchSchema.folded`), so the folded table equals the
        half-width build of the same signed stream (bit-for-bit for
        integer-valued updates).
        """
        folded = resolve_folded_schema(self._schema, schema)
        half = folded.width
        return CountSketch(
            folded, self._table[:, :half] + self._table[:, half:]
        )

    def _check_terms(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> list:
        tables = []
        for coeff, summary in terms:
            if not isinstance(summary, CountSketch):
                raise TypeError(
                    f"cannot combine CountSketch with {type(summary).__name__}"
                )
            if summary._schema != self._schema:
                raise ValueError("cannot combine sketches with different schemas")
            tables.append((float(coeff), summary._table))
        return tables

    def combine_into(
        self,
        terms: Sequence[Tuple[float, LinearSummary]],
        scratch: Optional[np.ndarray] = None,
    ) -> "CountSketch":
        """In-place COMBINE reusing this sketch's table (allocation-free)."""
        accumulate_arrays(self._table, self._check_terms(terms), scratch)
        return self

    def _linear_combination(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> "CountSketch":
        result = CountSketch(self._schema)
        accumulate_arrays(result._table, self._check_terms(terms))
        return result
