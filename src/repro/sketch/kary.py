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


class KArySchema:
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

    def __init__(
        self,
        depth: int = 5,
        width: int = 8192,
        seed: Optional[int] = 0,
        family: str = "tabulation",
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth (H) must be >= 1, got {depth}")
        if width < 2:
            raise ValueError(f"width (K) must be >= 2, got {width}")
        self._depth = int(depth)
        self._width = int(width)
        self._seed = seed
        self._family = family
        seeds = derive_seeds(seed, depth)
        self._hashes = tuple(make_family(family, width, seed=s) for s in seeds)
        # Stacked evaluator serving all H rows per pass (bit-identical to
        # looping over self._hashes; see repro.hashing.stacked).
        self._stacked = make_stacked(self._hashes, width)

    @property
    def depth(self) -> int:
        """Number of rows ``H``."""
        return self._depth

    @property
    def width(self) -> int:
        """Number of buckets per row ``K``."""
        return self._width

    @property
    def family(self) -> str:
        """Name of the hash family in use."""
        return self._family

    @property
    def seed(self) -> Optional[int]:
        """Master seed (None when seeded from OS entropy)."""
        return self._seed

    @property
    def hashes(self) -> tuple:
        """The per-row hash functions."""
        return self._hashes

    def bucket_indices(self, keys) -> np.ndarray:
        """Hash ``keys`` with every row function: shape ``(H, n)`` int64.

        This is the stacked fast path -- one vectorized pass over the batch
        computes all ``H`` rows (for tabulation: three gathers into
        interleaved pre-reduced strips plus two XORs), bit-identical to
        evaluating the per-row functions one by one.  The detection
        report hashes its candidate keys once with it and reads their
        rows through :meth:`KArySketch.estimate_rows`.
        """
        keys = SummaryConvention.as_key_array(keys)
        return self._stacked.hash_all(keys)

    def empty(self) -> "KArySketch":
        """Return a fresh all-zeros sketch over this schema."""
        return KArySketch(self)

    def from_items(self, keys, values) -> "KArySketch":
        """Build a sketch directly from arrays of keys and updates."""
        sketch = self.empty()
        sketch.update_batch(keys, values)
        return sketch

    @property
    def table_bytes(self) -> int:
        """Memory footprint of one sketch table (excluding hash tables)."""
        return self._depth * self._width * 8

    def folded(self) -> "KArySchema":
        """The half-width schema this family folds into (same depth/seed).

        Because every hash family reduces a width-independent 64-bit
        value modulo ``K``, the returned schema's bucket index for any
        key equals this schema's index mod ``K/2`` -- the structural fact
        :meth:`KArySketch.fold_width` relies on.
        """
        return type(self)(
            depth=self._depth, width=folded_width(self),
            seed=self._seed, family=self._family,
        )

    def __eq__(self, other) -> bool:
        """Structural equality: same dimensions, family and *explicit* seed.

        Two schemas with explicit equal seeds derive identical hash
        functions, so their sketches are COMBINE-compatible even when the
        objects were built independently (e.g. after wire transfer).
        Schemas seeded from OS entropy (``seed=None``) are only equal to
        themselves -- their hash functions genuinely differ.
        """
        if self is other:
            return True
        if not isinstance(other, KArySchema):
            return NotImplemented
        return (
            self._seed is not None
            and other._seed is not None
            and self._seed == other._seed
            and self._depth == other._depth
            and self._width == other._width
            and self._family == other._family
        )

    def __hash__(self) -> int:
        return hash((self._depth, self._width, self._family, self._seed))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KArySchema(depth={self._depth}, width={self._width}, "
            f"seed={self._seed}, family={self._family!r})"
        )


class KArySketch(LinearSummary):
    """One k-ary sketch instance: an ``H x K`` counter table over a schema."""

    __slots__ = ("_schema", "_table")

    def __init__(self, schema: KArySchema, table: Optional[np.ndarray] = None) -> None:
        self._schema = schema
        if table is None:
            table = np.zeros((schema.depth, schema.width), dtype=np.float64)
        else:
            # C-contiguity lets the fused update/gather kernels run; an
            # already-contiguous float64 array passes through unchanged.
            table = np.ascontiguousarray(table, dtype=np.float64)
            if table.shape != (schema.depth, schema.width):
                raise ValueError(
                    f"table shape {table.shape} does not match schema "
                    f"({schema.depth}, {schema.width})"
                )
        self._table = table

    # -- accessors ---------------------------------------------------------

    @property
    def schema(self) -> KArySchema:
        """The schema (hash functions and dimensions) this sketch uses."""
        return self._schema

    @property
    def table(self) -> np.ndarray:
        """The underlying ``H x K`` counter table (read-only view)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    @property
    def nbytes(self) -> int:
        """Memory used by the counter table."""
        return self._table.nbytes

    def copy(self) -> "KArySketch":
        """Return an independent copy sharing the schema."""
        return KArySketch(self._schema, self._table.copy())

    def reset(self) -> None:
        """Zero all counters in place."""
        self._table[:] = 0.0

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
        k = self._schema.width
        sum_sq = np.einsum("ij,ij->i", self._table, self._table)
        total = self.total()
        per_row = (k / (k - 1.0)) * sum_sq - (total * total) / (k - 1.0)
        return float(np.median(per_row))

    # -- FOLD --------------------------------------------------------------

    def fold_width(self, schema: Optional[KArySchema] = None) -> "KArySketch":
        """Halve the width exactly (Hokusai item aggregation).

        ``T'[i][j] = T[i][j] + T[i][j + K/2]`` over a half-width schema
        with the same depth, seed, and family.  Because bucket indices at
        width ``K/2`` are the width-``K`` indices mod ``K/2`` (see
        :meth:`KArySchema.folded`), the result is **exactly** the sketch
        the half-width schema would have built from the same stream --
        not an approximation of it -- and linearity makes the fold
        commute with COMBINE.  ("Exactly" is bit-for-bit when updates
        are integer-valued counts, the archive's case; for arbitrary
        float updates the fold regroups the per-cell summation order,
        so equality holds up to float associativity.)  Estimation variance roughly doubles
        (``F2/(K/2 - 1)``): resolution is traded for memory, which is the
        point of aging archives.

        Pass the prebuilt half-width ``schema`` when folding repeatedly;
        building one on the fly re-derives the hash tables.
        """
        folded = resolve_folded_schema(self._schema, schema)
        half = folded.width
        return KArySketch(
            folded, self._table[:, :half] + self._table[:, half:]
        )

    # -- COMBINE -----------------------------------------------------------

    def _check_terms(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> list:
        tables = []
        for coeff, summary in terms:
            if not isinstance(summary, KArySketch):
                raise TypeError(
                    f"cannot combine KArySketch with {type(summary).__name__}"
                )
            if summary._schema != self._schema:
                raise ValueError(
                    "cannot combine sketches with different schemas "
                    "(hash functions must be identical)"
                )
            tables.append((float(coeff), summary._table))
        return tables

    def combine_into(
        self,
        terms: Sequence[Tuple[float, LinearSummary]],
        scratch: Optional[np.ndarray] = None,
    ) -> "KArySketch":
        """In-place COMBINE: overwrite this sketch with ``sum(c_i * S_i)``.

        Reuses this sketch's table (and an optional caller-provided
        ``(H, K)`` float64 ``scratch`` for non-unit coefficients) so a
        seal-path COMBINE allocates nothing.  Bit-identical to
        :func:`~repro.sketch.mergeable.combine`; the receiver must not
        itself appear in ``terms``.
        """
        accumulate_arrays(self._table, self._check_terms(terms), scratch)
        return self

    def _linear_combination(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> "KArySketch":
        result = KArySketch(self._schema)
        accumulate_arrays(result._table, self._check_terms(terms))
        return result

    def _sweep_table(self) -> np.ndarray:
        """The live counter table, for in-place COMBINE statement sweeps.

        :func:`~repro.sketch.base.sweep_statements` reads and rewrites
        it directly; the forecasters call this only on sketches they
        own (see :class:`~repro.forecast.base.Forecaster`).
        """
        return self._table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KArySketch(H={self._schema.depth}, K={self._schema.width}, "
            f"total={self.total():.6g})"
        )

