"""The sketch tensor: a time series of k-ary sketches as one ndarray.

Forecasting and grid search operate on *series* of same-schema sketches --
one observed sketch per interval.  Holding them as ``T`` separate
``KArySketch`` objects forces every linear-space operation (forecast
recursions, error differencing, per-interval ``ESTIMATEF2``) through
object-at-a-time dispatch.  :class:`SketchStack` stores the series as one
C-contiguous ``(T, H, K)`` float64 tensor instead, so whole-series
operations become single NumPy calls: per-interval F2 of every interval is
one ``einsum`` over the stack, and the vectorized forecast engine
(:mod:`repro.forecast.vectorized`) runs its recursions directly on the
tensor.

The stack stays interchangeable with a plain sequence of sketches:
iterating yields :class:`~repro.sketch.kary.KArySketch` *views* onto the
tensor rows, so every existing per-object API (``Forecaster.run``,
``estimated_total_energy``, detection pipelines) accepts a ``SketchStack``
unchanged.  All batched results are bit-identical to the per-object paths;
the equivalence tests assert this.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.sketch.kary import KArySchema, KArySketch


class SketchStack:
    """A ``(T, H, K)`` tensor of ``T`` same-schema k-ary sketch tables.

    Parameters
    ----------
    schema:
        The shared :class:`KArySchema`.
    tables:
        Array of shape ``(T, H, K)`` (copied to C-contiguous float64 if
        necessary).  Omit for an empty stack of length ``length``.
    length:
        Number of zeroed intervals when ``tables`` is omitted.
    """

    __slots__ = ("_schema", "_tables")

    def __init__(
        self,
        schema: KArySchema,
        tables: Optional[np.ndarray] = None,
        length: int = 0,
    ) -> None:
        self._schema = schema
        if tables is None:
            tables = np.zeros(
                (int(length), schema.depth, schema.width), dtype=np.float64
            )
        else:
            tables = np.ascontiguousarray(tables, dtype=np.float64)
            if tables.ndim != 3 or tables.shape[1:] != (schema.depth, schema.width):
                raise ValueError(
                    f"tables shape {tables.shape} does not match schema "
                    f"(T, {schema.depth}, {schema.width})"
                )
        self._tables = tables

    # -- construction ------------------------------------------------------

    @classmethod
    def from_sketches(cls, sketches: Sequence[KArySketch]) -> "SketchStack":
        """Stack a sequence of same-schema sketches (tables are copied)."""
        sketches = list(sketches)
        if not sketches:
            raise ValueError("from_sketches requires at least one sketch")
        schema = sketches[0].schema
        for s in sketches[1:]:
            if s.schema is not schema and s.schema != schema:
                raise ValueError(
                    "all sketches must share one schema "
                    "(hash functions must be identical)"
                )
        tables = np.stack([np.asarray(s.table) for s in sketches])
        return cls(schema, tables)

    # -- accessors ---------------------------------------------------------

    @property
    def schema(self) -> KArySchema:
        """The shared schema of every interval sketch."""
        return self._schema

    @property
    def tables(self) -> np.ndarray:
        """The underlying ``(T, H, K)`` tensor (read-only view)."""
        view = self._tables.view()
        view.flags.writeable = False
        return view

    @property
    def shape(self) -> tuple:
        """``(T, H, K)``."""
        return self._tables.shape

    @property
    def nbytes(self) -> int:
        """Memory used by the tensor."""
        return self._tables.nbytes

    def __len__(self) -> int:
        return self._tables.shape[0]

    def as_sketch(self, t: int) -> KArySketch:
        """Interval ``t`` as a :class:`KArySketch` *view* (shares memory)."""
        return KArySketch(self._schema, self._tables[t])

    def __getitem__(self, item):
        if isinstance(item, slice):
            return SketchStack(self._schema, self._tables[item])
        return self.as_sketch(int(item))

    def __iter__(self) -> Iterator[KArySketch]:
        for t in range(len(self)):
            yield self.as_sketch(t)

    def as_sketches(self) -> List[KArySketch]:
        """All intervals as sketch views."""
        return list(self)

    def copy(self) -> "SketchStack":
        """Independent copy sharing the schema."""
        return SketchStack(self._schema, self._tables.copy())

    # -- batched estimation ------------------------------------------------

    def totals(self) -> np.ndarray:
        """``sum(S)`` of every interval: shape ``(T,)``."""
        return self._tables[:, 0, :].sum(axis=1)

    def estimate_f2_all(self) -> np.ndarray:
        """ESTIMATEF2 of every interval in one pass: shape ``(T,)``.

        Bit-identical to ``[self.as_sketch(t).estimate_f2() for t in ...]``.
        """
        return tables_estimate_f2(self._tables, self._schema.width)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t, h, k = self._tables.shape
        return f"SketchStack(T={t}, H={h}, K={k})"


def tables_estimate_f2(tables: np.ndarray, width: int) -> np.ndarray:
    """Per-slice ESTIMATEF2 over an ``(..., H, K)`` table tensor.

    Vectorized transliteration of :meth:`KArySketch.estimate_f2`: for each
    leading slice, the median over rows of ``K/(K-1) * sum_j T[i][j]**2 -
    sum(S)**2 / (K-1)``.  Every arithmetic step matches the per-object
    implementation operation for operation, so results are bit-identical.
    """
    tables = np.asarray(tables, dtype=np.float64)
    lead = tables.shape[:-2]
    depth, k = tables.shape[-2], int(width)
    if tables.shape[-1] != k:
        raise ValueError(f"table width {tables.shape[-1]} != {k}")
    flat = tables.reshape((-1, depth, k))
    sum_sq = np.einsum("thk,thk->th", flat, flat)
    totals = flat[:, 0, :].sum(axis=1)
    per_row = (k / (k - 1.0)) * sum_sq - (totals * totals)[:, None] / (k - 1.0)
    return np.median(per_row, axis=1).reshape(lead)
