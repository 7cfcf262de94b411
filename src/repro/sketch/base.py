"""Common interface for linear stream summaries.

A *linear summary* of a keyed update stream is any structure ``S`` such that
summarizing stream ``A`` then stream ``B`` equals summarizing ``A + B``, and
scaling the stream scales the summary.  Exact per-key vectors, k-ary
sketches, Count-Min tables and Count Sketches all satisfy this.

Linearity is the property the paper exploits to move time-series
forecasting from per-flow space into sketch space: since every forecast
model in Section 3.2 computes a *linear combination* of past observations,
one can apply the model to summaries instead of raw vectors and obtain the
summary of the forecast (and, crucially, of the forecast *error*).

Concrete implementations provide:

``update(key, value)`` / ``update_batch(keys, values)``
    Turnstile-model point updates (values may be negative).
``estimate(key)`` / ``estimate_batch(keys)``
    Reconstruct the per-key total (exact for :class:`DictVector`,
    probabilistic for sketches).
``estimate_f2()``
    Estimate the second moment ``F2 = sum_a v_a**2``.
``+``, ``-``, unary ``-``, ``*`` by scalar
    Linear arithmetic.  Sketches may only be combined when they share a
    schema (identical hash functions).
"""

from __future__ import annotations

import abc
import copy
import math
from collections.abc import Iterable
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hashing import derive_seeds, make_family, make_stacked, mv_fold_planes
from repro.hashing._kernels import SWEEP_MAX_TEMPS, get_kernels


class SummaryConvention:
    """Shared helpers for argument normalization across summary types."""

    @staticmethod
    def as_key_array(keys) -> np.ndarray:
        """Caller keys as a 1-D uint64 array, or ``ValueError``.

        A plain uint64 cast would truncate float keys, wrap negative ones
        to ``2**64 - k`` and read booleans as keys 0 and 1, so anything
        but a 1-D sequence or array of integers in ``[0, 2**64)`` raises.
        An empty sequence or array of any dtype is valid.  A uint64 array
        passes through as it is, after one dtype check.
        """
        if isinstance(keys, np.ndarray):
            arr = keys
            valid = arr.ndim == 1 and (
                not len(arr)
                or arr.dtype.kind == "u"
                or (arr.dtype.kind == "i" and arr.min() >= 0)
            )
        else:
            # A scalar is not a sequence of keys: ``None`` fails the check.
            items = list(keys) if isinstance(keys, Iterable) else [None]
            valid = all(
                isinstance(k, (int, np.integer))
                and not isinstance(k, bool)
                and 0 <= int(k) < 2**64
                for k in items
            )
            arr = np.array(items if valid else [], dtype=np.uint64)
        if not valid:
            raise ValueError(
                "keys must be a 1-D sequence or array of integers in "
                f"[0, 2**64), got {keys!r:.80}"
            )
        return arr.astype(np.uint64, copy=False)

    @staticmethod
    def as_value_array(values, length: int) -> np.ndarray:
        """Coerce values to a 1-D float64 array of ``length``.

        Non-finite updates are rejected: a single NaN would silently
        poison every counter its key touches (and the shared F2 estimate),
        so it must fail at the boundary, not corrupt downstream.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(length, float(arr), dtype=np.float64)
        if arr.shape != (length,):
            raise ValueError(
                f"values must have shape ({length},), got {arr.shape}"
            )
        if len(arr) and not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(
                f"updates must be finite; found {arr[bad]} at position {bad}"
            )
        return arr


def accumulate_arrays(
    out: np.ndarray,
    terms: Sequence[Tuple[float, np.ndarray]],
    scratch: "np.ndarray | None" = None,
) -> np.ndarray:
    """In-place ``out[...] = sum(coeff * arr for coeff, arr in terms)``.

    The allocating reference loop (``acc = zeros; acc += coeff * arr``)
    materializes a fresh ``coeff * arr`` temporary per term.  This helper
    produces the same values with zero per-term temporaries:
    ``x + 1.0*y == x + y`` and ``x + (-1.0)*y == x - y`` exactly in
    IEEE-754, the first term is written directly instead of added to a
    zeroed table (identical except that exact-zero cells keep their sign
    instead of being normalized to ``+0.0`` -- invisible to ``==``), and
    the general-coefficient case routes the identical multiply-then-add
    through one reusable ``scratch`` buffer (allocated lazily when the
    caller does not supply it).

    ``out`` must not alias any term array -- it is overwritten first.
    """
    for _, arr in terms:
        if arr is out:
            raise ValueError(
                "accumulate_arrays destination may not appear in terms"
            )
    if not terms:
        out[...] = 0.0
        return out
    first_coeff, first = terms[0]
    if first_coeff == 1.0:
        np.copyto(out, first)
    elif first_coeff == -1.0:
        np.negative(first, out=out)
    else:
        np.multiply(first, first_coeff, out=out)
    for coeff, arr in terms[1:]:
        if coeff == 1.0:
            np.add(out, arr, out=out)
        elif coeff == -1.0:
            np.subtract(out, arr, out=out)
        else:
            if scratch is None:
                scratch = np.empty_like(out)
            np.multiply(arr, coeff, out=scratch)
            np.add(out, scratch, out=out)
    return out


#: Cells per block of :func:`sweep_statements`' NumPy fallback (64 KiB
#: of float64 per temporary).
_FALLBACK_SWEEP_BLOCK = 8_192

#: One COMBINE statement: ``(dst, ((coeff, src), ...))`` sets the name
#: ``dst`` to ``sum(coeff * src)``, each term multiplied, then added left
#: to right.  A list of them runs in order, later statements reading the
#: values earlier ones wrote.
Statement = Tuple[str, Sequence[Tuple[float, str]]]


def _planes(table) -> tuple:
    """A statement table's planes: ``(counters,)`` or the MV triple."""
    return table if isinstance(table, tuple) else (table,)


def accumulate_statements(
    statements: Sequence[Statement], tables: Mapping[str, object]
) -> None:
    """Run COMBINE statements one by one through :func:`accumulate_arrays`.

    ``tables`` binds names to equally shaped float64 arrays, which the
    statements read and overwrite in place; every other name is a
    temporary.  A destination may appear among its own sources: it reads
    the old value.  A table may instead be an invertible sketch's
    ``(counters, candidate_keys, candidate_votes)`` planes (keys as
    ``uint64``); then every table is, and each statement also folds its
    terms' candidate planes by the MV rule
    (:func:`~repro.hashing.stacked.mv_fold_planes`), as
    :meth:`~repro.sketch.invertible.InvertibleKArySketch.combine_into`
    does.  This is the reference semantics of :func:`sweep_statements`,
    whose fallback without compiled kernels runs it block by block.
    """
    env = {name: _planes(table) for name, table in tables.items()}
    scratch = None
    for dst, terms in statements:
        sources = [(float(c), env[src]) for c, src in terms]
        out = env.get(dst)
        if scratch is None:
            scratch = np.empty_like(sources[0][1][0])
        if out is None or any(planes is out for _, planes in sources):
            result = tuple(np.empty_like(plane) for plane in sources[0][1])
        else:
            result = out
        accumulate_arrays(
            result[0], [(c, planes[0]) for c, planes in sources], scratch
        )
        if len(result) == 3:
            mv_fold_planes(
                result[1], result[2],
                [(c, planes[1], planes[2]) for c, planes in sources],
            )
        if out is None:
            env[dst] = result
        elif result is not out:
            for plane, value in zip(out, result):
                np.copyto(plane, value)


def _encode_statements(statements, names: tuple) -> tuple:
    """Slot-encode a statement list for ``combine_sweep``.

    Names in ``names`` are table slots in that order; every other name
    gets a temporary slot after them, at most ``SWEEP_MAX_TEMPS`` of
    them.  Returns ``(n_temps, written, code)``: the table slots some
    statement writes, and the four statement arrays the kernel reads.
    """
    slots = {name: i for i, name in enumerate(names)}
    dst, n_terms, src, coeff = [], [], [], []
    for target, terms in statements:
        if not terms:
            raise ValueError(f"statement for {target!r} has no terms")
        for c, name in terms:
            if name not in slots:
                raise ValueError(
                    f"{name!r} is read before any statement writes it"
                )
            src.append(slots[name])
            coeff.append(float(c))
        n_terms.append(len(terms))
        dst.append(slots.setdefault(target, len(slots)))
    n_temps = len(slots) - len(names)
    if n_temps > SWEEP_MAX_TEMPS:
        raise ValueError(
            f"{n_temps} temporaries; a sweep holds at most {SWEEP_MAX_TEMPS}"
        )
    written = tuple(sorted({slot for slot in dst if slot < len(names)}))
    code = (
        np.array(dst, dtype=np.int64), np.array(n_terms, dtype=np.int64),
        np.array(src, dtype=np.int64), np.array(coeff, dtype=np.float64),
    )
    return n_temps, written, code


#: Plane dtypes of a statement table without and with candidate planes.
_PLANE_DTYPES = {1: (np.float64,), 3: (np.float64, np.uint64, np.float64)}


def sweep_statements(
    statements: Sequence[Statement], tables: Mapping[str, object]
) -> None:
    """Run COMBINE statements in place in one pass over ``tables``.

    Same contract and same bits as :func:`accumulate_statements`, MV
    candidate planes included.  With the compiled kernels the whole list
    runs as one ``combine_sweep``: block by block, every statement over
    a block of cells before the next, with temporaries in block-local
    buffers, so each table (and each candidate plane) is read and
    written once per call instead of once per statement.  Raises
    ``ValueError`` for an empty statement, a name read before anything
    writes it, more than ``SWEEP_MAX_TEMPS`` temporaries (the kernel's
    block-local buffers), tables that are not all equally shaped
    C-contiguous float64 arrays or all such plane triples (keys
    ``uint64``), or a written table that overlaps another table.
    """
    planes = [_planes(table) for table in tables.values()]
    n_temps, written, code = _encode_statements(statements, tuple(tables))
    width = len(planes[0])
    dtypes = _PLANE_DTYPES.get(width, ())
    shape = planes[0][0].shape
    for table in planes:
        if len(table) != len(dtypes) or any(
            arr.dtype != dtype
            or arr.shape != shape
            or not arr.flags.c_contiguous
            for arr, dtype in zip(table, dtypes)
        ):
            raise ValueError(
                "statement tables must be equally shaped, C-contiguous "
                "float64 arrays, or all (counters, uint64 keys, votes) "
                "plane triples"
            )
    # Equal-sized contiguous planes overlap iff their starts are closer
    # than one plane's bytes.
    flat = [arr for table in planes for arr in table]
    addresses = [arr.ctypes.data for arr in flat]
    nbytes = flat[0].nbytes
    for slot in written:
        for mine in range(slot * width, (slot + 1) * width):
            if not flat[mine].flags.writeable or any(
                abs(addresses[mine] - address) < nbytes
                for other, address in enumerate(addresses)
                if other != mine
            ):
                raise ValueError(
                    f"table {list(tables)[slot]!r} is written, so it must "
                    "be writeable and overlap no other table"
                )
    kernels = get_kernels()
    if kernels is not None:
        kernels.combine_sweep(
            addresses[::width], n_temps, flat[0].size, *code,
            candidates=(
                (addresses[1::width], addresses[2::width])
                if width == 3 else None
            ),
        )
        return
    # The same block-by-block pass in NumPy: every operation is per cell,
    # so the bits are the same, and the temporaries stay block-sized.
    flat_tables = {
        name: tuple(arr.reshape(-1) for arr in table)
        for name, table in zip(tables, planes)
    }
    for lo in range(0, flat[0].size, _FALLBACK_SWEEP_BLOCK):
        block = slice(lo, lo + _FALLBACK_SWEEP_BLOCK)
        accumulate_statements(
            statements,
            {
                name: tuple(arr[block] for arr in table)
                for name, table in flat_tables.items()
            },
        )


class LinearSummary(abc.ABC):
    """Abstract base class for linear summaries of keyed update streams."""

    @abc.abstractmethod
    def update_batch(self, keys, values) -> None:
        """Apply point updates ``A[keys[i]] += values[i]`` for all ``i``."""

    def update(self, key: int, value: float) -> None:
        """Apply a single point update ``A[key] += value``."""
        self.update_batch([key], [value])

    @abc.abstractmethod
    def estimate_batch(self, keys) -> np.ndarray:
        """Reconstruct the totals for an array of keys."""

    def estimate(self, key: int) -> float:
        """Reconstruct the total for a single key."""
        return float(self.estimate_batch([key])[0])

    @abc.abstractmethod
    def estimate_f2(self) -> float:
        """Estimate the second moment ``F2 = sum_a v_a**2``."""

    def l2_norm(self) -> float:
        """The L2 norm ``sqrt(F2)`` (paper Section 3.1).

        The estimated F2 of an error summary can be marginally negative due
        to the unbiased estimator's variance; clamp at zero so the norm is
        always defined.
        """
        return math.sqrt(max(self.estimate_f2(), 0.0))

    # -- linear arithmetic -------------------------------------------------

    @abc.abstractmethod
    def _linear_combination(
        self, terms: Sequence[Tuple[float, "LinearSummary"]]
    ) -> "LinearSummary":
        """Return ``sum(c * s for c, s in terms)`` as a new summary."""

    def __add__(self, other: "LinearSummary") -> "LinearSummary":
        return self._linear_combination([(1.0, self), (1.0, other)])

    def __sub__(self, other: "LinearSummary") -> "LinearSummary":
        return self._linear_combination([(1.0, self), (-1.0, other)])

    def __mul__(self, scalar: float) -> "LinearSummary":
        if not np.isscalar(scalar):
            return NotImplemented
        return self._linear_combination([(float(scalar), self)])

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "LinearSummary":
        if not np.isscalar(scalar):
            return NotImplemented
        return self._linear_combination([(1.0 / float(scalar), self)])

    def __neg__(self) -> "LinearSummary":
        return self._linear_combination([(-1.0, self)])


def folded_width(schema) -> int:
    """Validate that ``schema`` can halve its width; return ``width // 2``.

    Width folding (Hokusai item aggregation) relies on every hash family
    reducing a width-independent 64-bit value modulo ``K``: since
    ``K/2`` divides ``K``, bucket ``j`` at width ``K`` is exactly bucket
    ``j mod K/2`` at width ``K/2``, so summing the two halves of each row
    reproduces the half-width table bit-for-bit.  That argument needs an
    even width, and a recoverable seed -- an entropy-seeded schema
    (``seed=None``) cannot rebuild matching half-width hash functions.
    """
    if schema.seed is None:
        raise ValueError(
            "cannot fold an entropy-seeded schema (seed=None): the "
            "half-width hash functions could not be rebuilt to match"
        )
    width = int(schema.width)
    if width % 2:
        raise ValueError(f"cannot fold odd width {width} in half")
    return width // 2


def resolve_folded_schema(schema, folded):
    """Return the half-width schema for a fold, validating a supplied one.

    ``folded=None`` builds one via ``schema.folded()``, which shares the
    row hashes but rebuilds the stacked evaluator (for tabulation, half a
    MiB of lookup strips per row), so callers folding repeatedly should
    build it once and pass it in.
    """
    half = folded_width(schema)
    if folded is None:
        return schema.folded()
    if type(folded) is not type(schema):
        raise TypeError(
            f"folded schema must be {type(schema).__name__}, "
            f"got {type(folded).__name__}"
        )
    if (
        folded.width != half
        or folded.depth != schema.depth
        or folded.seed != schema.seed
        or folded.family != schema.family
        or folded.key_bits != schema.key_bits
    ):
        raise ValueError(
            f"folded schema {folded!r} does not match half of {schema!r}: "
            "it must share depth, seed, family and key_bits at exactly half "
            "the width"
        )
    return folded


class HashedSchema:
    """Dimensions and row hashes shared by every sketch of one kind.

    ``depth`` rows of ``width`` buckets, row ``i`` paired with its own
    hash function from ``family``, seeded from ``seed``.  Every sketch
    :meth:`empty` builds shares these functions, so sketches of one
    schema can be combined and compared cell for cell.  Each kind
    subclasses this with its :attr:`kind` name and :attr:`sketch_type`;
    a kind whose cells hold more than one counter widens
    :attr:`table_shape`.

    Parameters
    ----------
    depth:
        Number of hash functions / table rows ``H``.
    width:
        Buckets per row ``K``, at least :attr:`min_width`.
    seed:
        Master seed; per-row seeds are derived deterministically.
        ``None`` draws OS entropy.
    family:
        Hash family name (``"tabulation"``, ``"polynomial"``, or
        ``"two-universal"`` for ablations).
    """

    #: The kind name: :func:`~repro.sketch.mergeable.kind_of` and the
    #: wire format's kind code.
    kind: str
    #: The sketch class over this schema; each kind's module sets it once
    #: both classes exist.
    sketch_type: type
    #: The narrowest legal width (estimators dividing by ``K - 1`` need 2).
    min_width = 2
    #: Per-bit subcounters in each cell; only group testing has any.
    key_bits = 0

    def __init__(
        self,
        depth: int = 5,
        width: int = 8192,
        seed: Optional[int] = 0,
        family: str = "tabulation",
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if width < self.min_width:
            raise ValueError(f"width must be >= {self.min_width}, got {width}")
        self._depth = int(depth)
        self._width = int(width)
        self._seed = seed
        self._family = family
        self._hashes = tuple(
            make_family(family, self._width, seed=s)
            for s in derive_seeds(seed, self._depth)
        )
        # Stacked evaluator serving all H rows per pass (bit-identical to
        # looping over the row functions; see repro.hashing.stacked).
        self._stacked = make_stacked(self._hashes, self._width)

    @classmethod
    def from_config(
        cls, depth: int, width: int, seed: Optional[int], family: str,
        key_bits: int = 0,
    ) -> "HashedSchema":
        """Build a schema of this kind from its identity fields.

        ``key_bits`` is ignored by every kind but group testing.
        """
        return cls(depth=depth, width=width, seed=seed, family=family)

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

    @property
    def table_shape(self) -> tuple:
        """Shape of one sketch's table: ``(H, K)`` unless a kind widens it."""
        return (self._depth, self._width)

    @property
    def table_bytes(self) -> int:
        """Memory footprint of one sketch table (excluding hash tables)."""
        return 8 * math.prod(self.table_shape)

    def bucket_indices(self, keys) -> np.ndarray:
        """Hash ``keys`` with every row function: shape ``(H, n)`` int64.

        One stacked pass over the batch computes all ``H`` rows,
        bit-identical to evaluating the per-row functions one by one.
        """
        return self._stacked.hash_all(SummaryConvention.as_key_array(keys))

    def empty(self) -> "HashedSketch":
        """Return a fresh all-zeros sketch over this schema."""
        return self.sketch_type(self)

    def from_items(self, keys, values) -> "HashedSketch":
        """Build a sketch directly from arrays of keys and updates."""
        sketch = self.empty()
        sketch.update_batch(keys, values)
        return sketch

    def folded(self) -> "HashedSchema":
        """The half-width schema this one folds into (same depth/seed).

        Because every hash family reduces a width-independent 64-bit
        value modulo ``K``, the returned schema's bucket index for any
        key equals this schema's index mod ``K/2`` -- the structural fact
        :meth:`HashedSketch.fold_width` relies on.  What computes that
        value (a tabulation row's 2 MiB of tables, a polynomial's
        coefficients) does not depend on the width either, so the
        half-width rows share it with this schema's rows
        (:meth:`~repro.hashing.universal.HashFamily.with_buckets`) and
        only the stacked evaluator is rebuilt.  Everything else a kind
        holds is shared as is (Count Sketch's sign hashes, group
        testing's ``key_bits``).  The result equals
        ``from_config(depth, width // 2, seed, family, key_bits)``.
        """
        half = folded_width(self)
        folded = copy.copy(self)
        folded._width = half
        folded._hashes = tuple(h.with_buckets(half) for h in self._hashes)
        folded._stacked = make_stacked(folded._hashes, half)
        return folded

    def _config(self) -> tuple:
        return (self._depth, self._width, self.key_bits, self._family)

    def __eq__(self, other) -> bool:
        """Structural equality: same kind, config and *explicit* seed.

        Two schemas with explicit equal seeds derive identical hash
        functions, so their sketches are COMBINE-compatible even when the
        objects were built independently (e.g. after wire transfer).
        Schemas seeded from OS entropy (``seed=None``) are only equal to
        themselves -- their hash functions genuinely differ.  Kinds never
        compare equal to each other, not even the invertible sketch's
        schema and its k-ary parent: merging would drop candidate votes.
        """
        if self is other:
            return True
        if not isinstance(other, HashedSchema):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._seed is not None
            and self._seed == other._seed
            and self._config() == other._config()
        )

    def __hash__(self) -> int:
        return hash((type(self), self._seed) + self._config())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        key_bits = f", key_bits={self.key_bits}" if self.key_bits else ""
        return (
            f"{type(self).__name__}(depth={self._depth}, width={self._width}, "
            f"seed={self._seed}, family={self._family!r}{key_bits})"
        )


class HashedSketch(LinearSummary):
    """A counter table over a :class:`HashedSchema`.

    Holds what every hashed kind shares: the table and its shape check,
    copy/reset, FOLD and COMBINE.  Kinds add UPDATE and their estimators.
    COMBINE is entry-wise over whole tables, so it applies to every
    linear per-cell layout (group testing's bit counters included).
    """

    __slots__ = ("_schema", "_table")

    def __init__(
        self, schema: HashedSchema, table: Optional[np.ndarray] = None
    ) -> None:
        shape = schema.table_shape
        if table is None:
            table = np.zeros(shape, dtype=np.float64)
        else:
            # C-contiguity lets the fused update/gather kernels run; an
            # already-contiguous float64 array passes through unchanged.
            table = np.ascontiguousarray(table, dtype=np.float64)
            if table.shape != shape:
                raise ValueError(
                    f"table shape {table.shape} does not match schema {shape}"
                )
        self._schema = schema
        self._table = table

    @property
    def schema(self) -> HashedSchema:
        """The schema (hash functions and dimensions) this sketch uses."""
        return self._schema

    @property
    def table(self) -> np.ndarray:
        """The underlying counter table (read-only view)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    @property
    def nbytes(self) -> int:
        """Memory used by the counter table."""
        return self._table.nbytes

    def copy(self) -> "HashedSketch":
        """Return an independent copy sharing the schema."""
        return type(self)(self._schema, self._table.copy())

    def reset(self) -> None:
        """Zero all counters in place."""
        self._table[...] = 0.0

    # -- FOLD --------------------------------------------------------------

    def fold_width(
        self, schema: Optional[HashedSchema] = None
    ) -> "HashedSketch":
        """Halve the width exactly (Hokusai item aggregation).

        ``T'[i][j] = T[i][j] + T[i][j + K/2]`` over a half-width schema
        with the same depth, seed, and family (for group testing, over
        every subcounter of the cell).  Because bucket indices at width
        ``K/2`` are the width-``K`` indices mod ``K/2`` (see
        :meth:`HashedSchema.folded`) and Count Sketch's sign hashes do
        not depend on the width, the result is **exactly** the sketch
        the half-width schema would have built from the same stream --
        not an approximation of it -- and linearity makes the fold
        commute with COMBINE.  ("Exactly" is bit-for-bit when updates
        are integer-valued counts, the archive's case; for arbitrary
        float updates the fold regroups the per-cell summation order,
        so equality holds up to float associativity.)  Estimation
        variance roughly doubles: resolution is traded for memory,
        which is the point of aging archives.

        Pass the prebuilt half-width ``schema`` when folding repeatedly;
        building one on the fly rebuilds the stacked hash evaluator.
        """
        folded = resolve_folded_schema(self._schema, schema)
        half = folded.width
        return type(self)(folded, self._table[:, :half] + self._table[:, half:])

    # -- COMBINE -----------------------------------------------------------

    def _check_terms(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> list:
        tables = []
        for coeff, summary in terms:
            if not isinstance(summary, type(self)):
                raise TypeError(
                    f"cannot combine {type(self).__name__} with "
                    f"{type(summary).__name__}"
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
    ) -> "HashedSketch":
        """In-place COMBINE: overwrite this sketch with ``sum(c_i * S_i)``.

        Reuses this sketch's table (and an optional caller-provided
        table-shaped float64 ``scratch`` for non-unit coefficients), so it
        allocates nothing.  Bit-identical to
        :func:`~repro.sketch.mergeable.combine`; the receiver must not
        itself appear in ``terms``.
        """
        accumulate_arrays(self._table, self._check_terms(terms), scratch)
        return self

    def _linear_combination(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> "HashedSketch":
        result = type(self)(self._schema)
        accumulate_arrays(result._table, self._check_terms(terms))
        return result

    def _sweep_table(self) -> np.ndarray:
        """The live table, for in-place COMBINE statement sweeps.

        :func:`sweep_statements` reads and rewrites it directly, every
        cell linearly; the forecasters call this only on sketches they
        own (see :class:`~repro.forecast.base.Forecaster`).
        """
        return self._table
