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

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.hashing import derive_seeds, gather_indices, make_family, make_stacked
from repro.sketch.base import (
    LinearSummary,
    SummaryConvention,
    accumulate_arrays,
    folded_width,
    resolve_folded_schema,
)


class CountMinSchema:
    """Shared hash functions and dimensions for Count-Min sketches."""

    def __init__(
        self,
        depth: int = 5,
        width: int = 8192,
        seed: Optional[int] = 0,
        family: str = "tabulation",
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.depth = int(depth)
        self.width = int(width)
        self.seed = seed
        self.family = family
        seeds = derive_seeds(seed, depth)
        self.hashes = tuple(make_family(family, width, seed=s) for s in seeds)
        self._stacked = make_stacked(self.hashes, width)

    def __eq__(self, other) -> bool:
        """Structural equality: same dimensions, family and *explicit* seed.

        Matches :class:`~repro.sketch.kary.KArySchema` semantics: schemas
        rebuilt from the same explicit seed derive identical hash functions
        and are COMBINE-compatible; entropy-seeded schemas (``seed=None``)
        are only equal to themselves.
        """
        if self is other:
            return True
        if not isinstance(other, CountMinSchema):
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

    def empty(self) -> "CountMinSketch":
        """Return a fresh zeroed Count-Min sketch."""
        return CountMinSketch(self)

    def from_items(self, keys, values) -> "CountMinSketch":
        """Build a sketch from arrays of keys and updates."""
        sketch = self.empty()
        sketch.update_batch(keys, values)
        return sketch

    def bucket_indices(self, keys) -> np.ndarray:
        """Hash ``keys`` with every row function: shape ``(depth, n)``.

        Served by the stacked evaluator (one pass for all rows).
        """
        keys = SummaryConvention.as_key_array(keys)
        return self._stacked.hash_all(keys)

    def folded(self) -> "CountMinSchema":
        """The half-width schema this family folds into (same depth/seed)."""
        return type(self)(
            depth=self.depth, width=folded_width(self),
            seed=self.seed, family=self.family,
        )


class CountMinSketch(LinearSummary):
    """Count-Min sketch with min (cash-register) or median (signed) estimation."""

    __slots__ = ("_schema", "_table")

    def __init__(self, schema: CountMinSchema, table: Optional[np.ndarray] = None):
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
    def schema(self) -> CountMinSchema:
        """The schema this sketch was built from."""
        return self._schema

    @property
    def table(self) -> np.ndarray:
        """Underlying counter table (read-only view)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    def copy(self) -> "CountMinSketch":
        """Return an independent copy sharing the schema."""
        return CountMinSketch(self._schema, self._table.copy())

    def reset(self) -> None:
        """Zero all counters in place."""
        self._table[:] = 0.0

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

    def fold_width(
        self, schema: Optional[CountMinSchema] = None
    ) -> "CountMinSketch":
        """Halve the width exactly (Hokusai item aggregation).

        Same structural argument as :meth:`KArySketch.fold_width`:
        bucket indices at width ``K/2`` are the width-``K`` indices mod
        ``K/2``, so summing the row halves reproduces the half-width
        table (bit-for-bit for integer-valued updates).  The cash-register error bound degrades from
        ``eps = e/K`` to ``2e/K`` -- resolution traded for memory.
        """
        folded = resolve_folded_schema(self._schema, schema)
        half = folded.width
        return CountMinSketch(
            folded, self._table[:, :half] + self._table[:, half:]
        )

    def _check_terms(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> list:
        tables = []
        for coeff, summary in terms:
            if not isinstance(summary, CountMinSketch):
                raise TypeError(
                    f"cannot combine CountMinSketch with {type(summary).__name__}"
                )
            if summary._schema != self._schema:
                raise ValueError("cannot combine sketches with different schemas")
            tables.append((float(coeff), summary._table))
        return tables

    def combine_into(
        self,
        terms: Sequence[Tuple[float, LinearSummary]],
        scratch: Optional[np.ndarray] = None,
    ) -> "CountMinSketch":
        """In-place COMBINE reusing this sketch's table (allocation-free)."""
        accumulate_arrays(self._table, self._check_terms(terms), scratch)
        return self

    def _linear_combination(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> "CountMinSketch":
        result = CountMinSketch(self._schema)
        accumulate_arrays(result._table, self._check_terms(terms))
        return result
