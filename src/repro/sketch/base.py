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
import math
from collections.abc import Iterable
from typing import Mapping, Sequence, Tuple

import numpy as np

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
        if len(arr) and not np.all(np.isfinite(arr)):
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


#: One COMBINE statement: ``(dst, ((coeff, src), ...))`` sets the name
#: ``dst`` to ``sum(coeff * src)``, each term multiplied, then added left
#: to right.  A list of them runs in order, later statements reading the
#: values earlier ones wrote.
Statement = Tuple[str, Sequence[Tuple[float, str]]]


def accumulate_statements(
    statements: Sequence[Statement], tables: Mapping[str, np.ndarray]
) -> None:
    """Run COMBINE statements one by one through :func:`accumulate_arrays`.

    ``tables`` binds names to equally shaped float64 arrays, which the
    statements read and overwrite in place; every other name is a
    temporary.  A destination may appear among its own sources: it reads
    the old value.  This is the reference semantics of
    :func:`sweep_statements` and its fallback without compiled kernels.
    """
    env = dict(tables)
    scratch = None
    for dst, terms in statements:
        arrays = [(float(c), env[src]) for c, src in terms]
        out = env.get(dst)
        if scratch is None:
            scratch = np.empty_like(arrays[0][1])
        if out is None:
            env[dst] = accumulate_arrays(
                np.empty_like(arrays[0][1]), arrays, scratch
            )
        elif any(arr is out for _, arr in arrays):
            result = accumulate_arrays(np.empty_like(out), arrays, scratch)
            np.copyto(out, result)
        else:
            accumulate_arrays(out, arrays, scratch)


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


def sweep_statements(
    statements: Sequence[Statement], tables: Mapping[str, np.ndarray]
) -> None:
    """Run COMBINE statements in place in one pass over ``tables``.

    Same contract and same bits as :func:`accumulate_statements`.  With
    the compiled kernels the whole list runs as one ``combine_sweep``:
    block by block, every statement over a block of cells before the
    next, with temporaries in block-local buffers, so each table is
    read and written once per call instead of once per statement.
    Raises ``ValueError`` for an empty statement, a name read before
    anything writes it, more than ``SWEEP_MAX_TEMPS`` temporaries (the
    kernel's block-local buffers), tables that are not equally shaped
    C-contiguous float64 arrays, or a written table that overlaps
    another table.
    """
    arrays = tuple(tables.values())
    n_temps, written, code = _encode_statements(statements, tuple(tables))
    shape = arrays[0].shape
    for arr in arrays:
        if (
            arr.dtype != np.float64
            or arr.shape != shape
            or not arr.flags.c_contiguous
        ):
            raise ValueError(
                "statement tables must be equally shaped, C-contiguous "
                "float64 arrays"
            )
    # Equal-sized contiguous tables overlap iff their starts are closer
    # than one table's bytes.
    addresses = [arr.ctypes.data for arr in arrays]
    nbytes = arrays[0].nbytes
    for slot in written:
        if not arrays[slot].flags.writeable or any(
            abs(addresses[slot] - address) < nbytes
            for other, address in enumerate(addresses)
            if other != slot
        ):
            raise ValueError(
                f"table {list(tables)[slot]!r} is written, so it must be "
                "writeable and overlap no other table"
            )
    kernels = get_kernels()
    if kernels is None:
        accumulate_statements(statements, tables)
        return
    kernels.combine_sweep(addresses, n_temps, arrays[0].size, *code)


class LinearSummary(abc.ABC):
    """Abstract base class for linear summaries of keyed update streams.

    Concrete types additionally implement ``combine_into(terms)`` -- the
    in-place counterpart of :meth:`_linear_combination` that overwrites the
    receiver with ``sum(c * s)`` without allocating a new summary, which is
    what lets the detection seal path reuse scratch summaries interval
    after interval.
    """

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

    ``folded=None`` builds a fresh schema via ``schema.folded()`` --
    expensive for tabulation families (2 MiB of tables per row), so
    callers folding repeatedly should build it once and pass it in.
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
        or getattr(folded, "key_bits", 0) != getattr(schema, "key_bits", 0)
    ):
        raise ValueError(
            f"folded schema {folded!r} does not match half of {schema!r}: "
            "it must share depth, seed, and family at exactly half the width"
        )
    return folded

