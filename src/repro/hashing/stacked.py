"""Stacked multi-row hash evaluation: all ``H`` sketch rows per pass.

The paper's Table 1 observes that one Thorup-Zhang evaluation "produces 8
independent 16-bit hash values" -- a single pass over the key serves many
sketch rows.  The per-row :class:`~repro.hashing.universal.HashFamily`
objects keep that structure implicit: hashing a batch against an ``H``-row
schema costs ``H`` separate Python-level passes.  This module makes the
structure explicit: a :class:`StackedHash` evaluates *all* rows of a schema
in one vectorized pass, bit-identical to looping over the rows.

For tabulation with a power-of-two bucket count the stack pre-reduces the
row tables: since ``x mod 2**b`` keeps the low bits and the low bits of an
XOR are the XOR of the low bits, ``(T0[c0] ^ T1[c1] ^ T2[c0+c1]) mod K ==
R0[c0] ^ R1[c1] ^ R2[c0+c1]`` with ``R = T & (K-1)`` stored as ``uint16``.
The reduced tables for all rows interleave into three ``(2**16, H)`` /
``(2**17, H)`` strips (~``0.5 MiB x H`` total) so one character lookup
yields the bucket of every row -- three gathers and two XORs for the whole
stack, exactly the paper's trick.  A fused C kernel
(:mod:`repro.hashing._kernels`) additionally merges hashing with the
scatter-add/gather of the sketch tables; when no compiler is available the
NumPy path produces identical results.

Nothing in this module knows about threads: the kernel facade picks the
serial or row-sharded multi-threaded entry per call (batch size vs
``min_parallel_keys``, thread count from ``REPRO_NUM_THREADS`` /
:func:`repro.hashing.set_num_threads`), so every ``scatter_add`` /
``gather`` / estimate below is transparently parallel on multi-core
hosts -- and, because UPDATE work is sharded by sketch row (one writer
per row, per-row stream order preserved), still bit-identical to this
module's NumPy reference at any thread count.  Multi-threaded calls
tally under ``*_mt`` names in
:func:`~repro.hashing._kernels.kernel_call_counts`.

Carter-Wegman polynomial rows stack their coefficient vectors into an
``(H, degree)`` matrix and run one broadcast Horner recursion.  Any other
(or mixed) row composition falls back to :class:`LoopStackedHash`, which is
the literal per-row loop.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.hashing._kernels import (
    MAX_ESTIMATE_DEPTH,
    SketchKernels,
    get_kernels,
)
from repro.hashing.carter_wegman import P61, _mulmod_p61, _PolynomialBase
from repro.hashing.tabulation import _CHAR_BITS, _CHAR_MASK, TabulationHash
from repro.hashing.universal import HashFamily


class StackedHash(abc.ABC):
    """Evaluates every row function of a schema in one batched pass.

    All implementations are *bit-identical* to evaluating the wrapped
    per-row functions one by one; the equivalence tests assert this across
    families, widths and depths.
    """

    def __init__(self, rows: Sequence[HashFamily], num_buckets: int) -> None:
        if not rows:
            raise ValueError("need at least one row function")
        for row in rows:
            if row.num_buckets != num_buckets:
                raise ValueError(
                    f"row has {row.num_buckets} buckets, expected {num_buckets}"
                )
        self._rows = tuple(rows)
        self._depth = len(self._rows)
        self._num_buckets = int(num_buckets)

    @property
    def depth(self) -> int:
        """Number of stacked rows ``H``."""
        return self._depth

    @property
    def num_buckets(self) -> int:
        """Shared output range ``K``."""
        return self._num_buckets

    @property
    def rows(self) -> tuple:
        """The wrapped per-row hash functions."""
        return self._rows

    @property
    def kernel_accelerated(self) -> bool:
        """True when :meth:`hash_all` runs in the compiled C kernels.

        Kernel hashing is cheap enough (L2-resident lookup strips) that
        memoizing its output is a net loss.
        """
        return False

    @abc.abstractmethod
    def hash_all(self, keys: np.ndarray) -> np.ndarray:
        """Bucket indices for every row: shape ``(H, n)`` int64."""

    def scatter_add(self, table: np.ndarray, keys: np.ndarray,
                    values: np.ndarray) -> None:
        """UPDATE all rows of an ``(H, K)`` table: ``table[i][h_i(a_j)] += u_j``."""
        indices = self.hash_all(keys)
        for i in range(self._depth):
            np.add.at(table[i], indices[i], values)

    def gather(self, table: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Raw cells ``table[i][h_i(a_j)]`` for every row: shape ``(H, n)``."""
        indices = self.hash_all(keys)
        return np.take_along_axis(table, indices, axis=1)

    def estimate_median(
        self,
        table: np.ndarray,
        keys: np.ndarray,
        mean_share: float,
        denom: float,
    ) -> Optional[np.ndarray]:
        """Fused k-ary ESTIMATE: ``median_i((table[i][h_i(a)] - mean_share) / denom)``.

        Returns the ``(n,)`` estimate vector when a fused kernel covers
        this stack, else ``None`` -- the caller then runs the reference
        gather + transform + ``np.median`` pipeline, which the kernel is
        bit-identical to.
        """
        return None

    def mv_vote(self, cand: np.ndarray, votes: np.ndarray,
                keys: np.ndarray, weights: np.ndarray) -> None:
        """Majority-vote candidate maintenance for an invertible sketch.

        Applies the MV rule (same key: vote += w; standing vote wins:
        vote -= w; else the key takes the slot with the vote difference)
        to the ``(H, K)`` candidate planes for every row's bucket of every
        key.  Callers pass *aggregated* keys -- unique, ascending, with
        per-key summed weights -- so the per-bucket operation sequence is
        canonical and the kernel and NumPy paths are bit-identical.
        """
        mv_vote_indices(cand, votes, self.hash_all(keys), keys, weights)


class LoopStackedHash(StackedHash):
    """Fallback: the literal per-row loop (reference semantics by definition)."""

    def hash_all(self, keys: np.ndarray) -> np.ndarray:
        return np.stack([h.hash_array(keys) for h in self._rows])


class StackedTabulationHash(StackedHash):
    """All-rows tabulation via interleaved (pre-reduced) lookup strips."""

    def __init__(self, rows: Sequence[TabulationHash], num_buckets: int) -> None:
        super().__init__(rows, num_buckets)
        k = self._num_buckets
        self._pow2 = k & (k - 1) == 0
        if self._pow2 and k <= (1 << _CHAR_BITS):
            # Pre-reduced uint16 strips: masking commutes with XOR.
            mask = np.uint64(k - 1)
            self._r0 = np.ascontiguousarray(
                np.stack([(h._t0 & mask).astype(np.uint16) for h in rows], axis=1)
            )
            self._r1 = np.ascontiguousarray(
                np.stack([(h._t1 & mask).astype(np.uint16) for h in rows], axis=1)
            )
            self._r2 = np.ascontiguousarray(
                np.stack([(h._t2 & mask).astype(np.uint16) for h in rows], axis=1)
            )
            self._u0 = self._u1 = self._u2 = None
            self._kernels: Optional[SketchKernels] = get_kernels()
        else:
            # Wide/non-pow2 K: full-width strips, reduce after the XOR.
            self._r0 = self._r1 = self._r2 = None
            self._u0 = np.ascontiguousarray(
                np.stack([h._t0 for h in rows], axis=1)
            )
            self._u1 = np.ascontiguousarray(
                np.stack([h._t1 for h in rows], axis=1)
            )
            self._u2 = np.ascontiguousarray(
                np.stack([h._t2 for h in rows], axis=1)
            )
            self._kernels = None

    def _characters(self, keys: np.ndarray):
        keys = TabulationHash.check_keys(keys)
        c0 = (keys & np.uint64(_CHAR_MASK)).astype(np.int64)
        c1 = (keys >> np.uint64(_CHAR_BITS)).astype(np.int64)
        return c0, c1

    @property
    def kernel_accelerated(self) -> bool:
        return self._kernels is not None

    def hash_all(self, keys: np.ndarray) -> np.ndarray:
        if self._r0 is not None:
            if self._kernels is not None:
                keys = TabulationHash.check_keys(keys)
                return self._kernels.hash_all(
                    keys, self._r0, self._r1, self._r2, self._depth
                )
            return self._hash_all_numpy(keys)
        c0, c1 = self._characters(keys)
        h = self._u0[c0] ^ self._u1[c1] ^ self._u2[c0 + c1]  # (n, H)
        return (h % np.uint64(self._num_buckets)).astype(np.int64).T

    def _hash_all_numpy(self, keys: np.ndarray) -> np.ndarray:
        """Pure-NumPy reduced-strip path (also the no-compiler fallback)."""
        c0, c1 = self._characters(keys)
        buckets = self._r0[c0] ^ self._r1[c1] ^ self._r2[c0 + c1]  # (n, H)
        return buckets.T.astype(np.int64, order="C")

    def scatter_add(self, table, keys, values) -> None:
        if (
            self._kernels is not None
            and table.flags.c_contiguous
            and table.dtype == np.float64
        ):
            keys = TabulationHash.check_keys(keys)
            self._kernels.update(table, keys, values, self._r0, self._r1, self._r2)
            return
        super().scatter_add(table, keys, values)

    def gather(self, table, keys) -> np.ndarray:
        if (
            self._kernels is not None
            and table.flags.c_contiguous
            and table.dtype == np.float64
        ):
            keys = TabulationHash.check_keys(keys)
            return self._kernels.gather(table, keys, self._r0, self._r1, self._r2)
        return super().gather(table, keys)

    def estimate_median(self, table, keys, mean_share, denom):
        if (
            self._kernels is not None
            and self._depth <= MAX_ESTIMATE_DEPTH
            and table.flags.c_contiguous
            and table.dtype == np.float64
        ):
            keys = TabulationHash.check_keys(keys)
            return self._kernels.estimate(
                table, keys, self._r0, self._r1, self._r2, mean_share, denom
            )
        return None

    def mv_vote(self, cand, votes, keys, weights) -> None:
        if (
            self._kernels is not None
            and cand.flags.c_contiguous
            and votes.flags.c_contiguous
            and votes.dtype == np.float64
        ):
            keys = TabulationHash.check_keys(keys)
            self._kernels.update_mv(
                cand, votes, keys, weights, self._r0, self._r1, self._r2
            )
            return
        super().mv_vote(cand, votes, keys, weights)


class StackedPolynomialHash(StackedHash):
    """All-rows Carter-Wegman via one broadcast Horner recursion.

    When the compiled kernels are available the whole stack evaluates in
    C -- one pass per key batch with the exact same ``P61`` fold the
    NumPy path runs -- and scatter/gather/ESTIMATE fuse the hash with the
    table access, so no ``(H, n)`` index array ever materializes.
    """

    def __init__(self, rows: Sequence[_PolynomialBase], num_buckets: int) -> None:
        super().__init__(rows, num_buckets)
        degrees = {h.degree for h in rows}
        if len(degrees) != 1:
            raise ValueError(f"mixed polynomial degrees: {sorted(degrees)}")
        self._degree = degrees.pop()
        # (H, degree) coefficient matrix; column j is coefficient c_j.
        self._coeffs = np.ascontiguousarray(
            np.stack([h._coeffs for h in rows]), dtype=np.uint64
        )
        self._kernels: Optional[SketchKernels] = get_kernels()

    @property
    def kernel_accelerated(self) -> bool:
        return self._kernels is not None

    def hash_all(self, keys: np.ndarray) -> np.ndarray:
        if self._kernels is not None:
            keys = keys.astype(np.uint64, copy=False)
            return self._kernels.poly_hash(keys, self._coeffs, self._num_buckets)
        return self._hash_all_numpy(keys)

    def scatter_add(self, table, keys, values) -> None:
        if (
            self._kernels is not None
            and table.flags.c_contiguous
            and table.dtype == np.float64
            and table.shape[1] == self._num_buckets
        ):
            keys = keys.astype(np.uint64, copy=False)
            self._kernels.poly_update(table, keys, values, self._coeffs)
            return
        super().scatter_add(table, keys, values)

    def gather(self, table, keys) -> np.ndarray:
        if (
            self._kernels is not None
            and table.flags.c_contiguous
            and table.dtype == np.float64
            and table.shape[1] == self._num_buckets
        ):
            keys = keys.astype(np.uint64, copy=False)
            return self._kernels.poly_gather(table, keys, self._coeffs)
        return super().gather(table, keys)

    def estimate_median(self, table, keys, mean_share, denom):
        if (
            self._kernels is not None
            and self._depth <= MAX_ESTIMATE_DEPTH
            and table.flags.c_contiguous
            and table.dtype == np.float64
            and table.shape[1] == self._num_buckets
        ):
            keys = keys.astype(np.uint64, copy=False)
            return self._kernels.poly_estimate(
                table, keys, self._coeffs, mean_share, denom
            )
        return None

    def _hash_all_numpy(self, keys: np.ndarray) -> np.ndarray:
        """Pure-NumPy broadcast Horner (also the no-compiler fallback)."""
        keys = keys.astype(np.uint64, copy=False)
        x = (keys >> np.uint64(61)) + (keys & np.uint64(P61))
        x = np.where(x >= np.uint64(P61), x - np.uint64(P61), x)
        x = x[np.newaxis, :]  # (1, n) broadcast against (H, 1) coefficients
        acc = np.empty((self._depth, keys.shape[0]), dtype=np.uint64)
        acc[...] = self._coeffs[:, -1:]
        for j in range(self._degree - 2, -1, -1):
            acc = _mulmod_p61(acc, x)
            acc = acc + self._coeffs[:, j : j + 1]
            acc = np.where(acc >= np.uint64(P61), acc - np.uint64(P61), acc)
        return (acc % np.uint64(self._num_buckets)).astype(np.int64)


def make_stacked(rows: Sequence[HashFamily], num_buckets: int) -> StackedHash:
    """Build the fastest stacked evaluator the row composition allows."""
    rows = tuple(rows)
    if all(isinstance(h, TabulationHash) for h in rows):
        return StackedTabulationHash(rows, num_buckets)
    if (
        all(isinstance(h, _PolynomialBase) for h in rows)
        and len({h.degree for h in rows}) == 1
    ):
        return StackedPolynomialHash(rows, num_buckets)
    return LoopStackedHash(rows, num_buckets)


def gather_indices(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Raw cells ``table[i][idx[i,j]]`` from precomputed bucket indices."""
    indices = np.asarray(indices, dtype=np.int64)
    kernels = get_kernels()
    if (
        kernels is not None
        and table.flags.c_contiguous
        and table.dtype == np.float64
    ):
        return kernels.gather_indices(table, indices)
    return np.take_along_axis(table, indices, axis=1)


def mv_vote_indices(
    cand: np.ndarray,
    votes: np.ndarray,
    indices: np.ndarray,
    keys: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Majority-vote maintenance from precomputed ``(H, n)`` bucket indices.

    The hash-free half of :meth:`StackedHash.mv_vote`: applies the MV rule
    to the candidate-key (``uint64`` view) and vote (``float64``) planes.
    The C kernel and the vectorized NumPy fallback replay the identical
    per-bucket operation sequence (ascending item order within each
    bucket), so the planes are bit-identical either way.
    """
    indices = np.asarray(indices, dtype=np.int64)
    kernels = get_kernels()
    if (
        kernels is not None
        and cand.flags.c_contiguous
        and votes.flags.c_contiguous
        and votes.dtype == np.float64
    ):
        kernels.update_mv_indices(cand, votes, indices, keys, weights)
        return
    _mv_vote_numpy(cand, votes, indices, keys, weights)


def mv_merge_planes(
    cand_a: np.ndarray,
    votes_a: np.ndarray,
    cand_b: np.ndarray,
    votes_b: np.ndarray,
    coeff: float,
) -> None:
    """Fold one term's candidate planes into the accumulator, MV-style.

    The COMBINE-side counterpart of :func:`mv_vote_indices`: treats the
    term ``(cand_b, votes_b)`` as one aggregate vote per bucket with
    weight ``votes_b * |coeff|`` and applies the MV rule cell by cell into
    ``(cand_a, votes_a)``.  Cells are independent, so the fused C kernel
    and the vectorized NumPy fallback perform the identical IEEE
    operations per cell -- the planes are bit-identical either way.
    """
    acoeff = abs(float(coeff))
    kernels = get_kernels()
    if (
        kernels is not None
        and cand_a.flags.c_contiguous
        and votes_a.flags.c_contiguous
        and cand_b.flags.c_contiguous
        and votes_b.flags.c_contiguous
    ):
        kernels.merge_mv(cand_a, votes_a, cand_b, votes_b, acoeff)
        return
    tv = votes_b * acoeff
    same = cand_a == cand_b
    ge = votes_a >= tv
    new_v = np.where(same, votes_a + tv, np.where(ge, votes_a - tv, tv - votes_a))
    np.copyto(cand_a, cand_b, where=~same & ~ge)
    np.copyto(votes_a, new_v)


def mv_fold_planes(out_k: np.ndarray, out_v: np.ndarray, terms) -> None:
    """Fold COMBINE terms' candidate planes into ``(out_k, out_v)``.

    ``terms`` are ``(coeff, cand, votes)``.  The output takes the first
    term's keys and votes ``* |coeff|``, then merges each later term with
    the MV rule (:func:`mv_merge_planes`), left to right; no terms leave
    both planes zero.  This is the candidate half of an invertible
    COMBINE, and ``combine_sweep`` folds each statement's planes by the
    same per-cell operations.  The output must not alias a term's planes.
    """
    if not terms:
        out_k[...] = 0
        out_v[...] = 0.0
        return
    (coeff, cand, votes), rest = terms[0], terms[1:]
    np.copyto(out_k, cand)
    np.multiply(votes, abs(float(coeff)), out=out_v)
    for coeff, cand, votes in rest:
        mv_merge_planes(out_k, out_v, cand, votes, coeff)


def mv_combine2_planes(
    out_k: np.ndarray,
    out_v: np.ndarray,
    cand_a: np.ndarray,
    votes_a: np.ndarray,
    coeff_a: float,
    cand_b: np.ndarray,
    votes_b: np.ndarray,
    coeff_b: float,
) -> None:
    """Two-term candidate COMBINE into ``(out_k, out_v)`` in one pass.

    Fuses the generic fold's copy+scale-then-merge sequence for the
    two-term case that dominates the forecast hot path.  The fallback
    replays exactly that sequence through :func:`mv_merge_planes`, and
    the fused kernel performs the identical IEEE operations per cell,
    so planes are bit-identical either way.  ``out_k`` / ``out_v`` must
    not alias either input.
    """
    kernels = get_kernels()
    if (
        kernels is not None
        and out_k.flags.c_contiguous
        and out_v.flags.c_contiguous
        and cand_a.flags.c_contiguous
        and votes_a.flags.c_contiguous
        and cand_b.flags.c_contiguous
        and votes_b.flags.c_contiguous
    ):
        kernels.combine2_mv(
            cand_a, votes_a, abs(float(coeff_a)),
            cand_b, votes_b, abs(float(coeff_b)),
            out_k, out_v,
        )
        return
    np.copyto(out_k, cand_a)
    np.multiply(votes_a, abs(float(coeff_a)), out=out_v)
    mv_merge_planes(out_k, out_v, cand_b, votes_b, coeff_b)


#: Cells per block of :func:`mv_recover_mask`'s NumPy fallback (64 KiB of
#: float64), as in :func:`~repro.sketch.base.sweep_statements`' fallback.
_RECOVER_BLOCK = 8_192


def mv_recover_mask(
    table: np.ndarray,
    votes: np.ndarray,
    mean_share: float,
    denom: float,
    threshold: float,
) -> np.ndarray:
    """Boolean bucket mask for the invertible recovery walk.

    Marks cells where ``|(table - mean_share) / denom|`` clears
    ``threshold`` (strictly exceeds zero when ``threshold == 0``) and the
    vote is live.  The fused C pass and the NumPy fallback perform the
    identical IEEE operations per cell, so the mask is bit-identical; the
    fallback runs them block by block into the one mask it returns.
    """
    kernels = get_kernels()
    if (
        kernels is not None
        and table.flags.c_contiguous
        and votes.flags.c_contiguous
    ):
        return kernels.recover_mask(table, votes, mean_share, denom, threshold)
    clears, bound = (
        (np.greater_equal, threshold) if threshold > 0.0 else (np.greater, 0.0)
    )
    mask = np.empty(table.shape, dtype=bool)
    cells, live, out = table.reshape(-1), votes.reshape(-1), mask.reshape(-1)
    est = np.empty(min(cells.size, _RECOVER_BLOCK))
    for lo in range(0, cells.size, _RECOVER_BLOCK):
        block = slice(lo, lo + _RECOVER_BLOCK)
        hit = out[block]
        part = est[: len(hit)]
        np.subtract(cells[block], mean_share, out=part)
        part /= denom
        np.abs(part, out=part)
        clears(part, bound, out=hit)
        hit &= live[block] > 0.0
    return mask


def _mv_vote_numpy(cand, votes, indices, keys, weights) -> None:
    """Pure-NumPy MV vote pass (also the no-compiler fallback).

    Per row: group the items by bucket (stable sort keeps the original
    item order within a bucket), then iterate over *occupancy position* --
    round ``p`` applies every bucket's ``p``-th item at once.  Each bucket
    therefore sees its items in the same ascending order as the C kernel's
    scalar loop, and each vectorized branch (``cv + ww``, ``cv - ww``,
    ``ww - cv``) is the same IEEE operation the kernel performs, so the
    resulting planes are bit-identical.
    """
    n = indices.shape[1]
    if n == 0:
        return
    keys = keys.astype(np.uint64, copy=False)
    weights = np.asarray(weights, dtype=np.float64)
    for i in range(indices.shape[0]):
        idx = indices[i]
        order = np.argsort(idx, kind="stable")
        sidx = idx[order]
        sk = keys[order]
        sw = weights[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sidx[1:] != sidx[:-1]))
        )
        buckets = sidx[starts]
        counts = np.diff(np.append(starts, n))
        cur_k = cand[i, buckets].copy()
        cur_v = votes[i, buckets].copy()
        for p in range(int(counts.max())):
            sel = counts > p
            j = starts[sel] + p
            kk = sk[j]
            ww = sw[j]
            ck = cur_k[sel]
            cv = cur_v[sel]
            same = ck == kk
            ge = cv >= ww
            cur_v[sel] = np.where(same, cv + ww, np.where(ge, cv - ww, ww - cv))
            cur_k[sel] = np.where(same | ge, ck, kk)
        cand[i, buckets] = cur_k
        votes[i, buckets] = cur_v


def fused_signed_update(
    bucket_stack: StackedHash,
    sign_stack: StackedHash,
    table: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
) -> bool:
    """Count-Sketch fused UPDATE (``table[i][h_i(a)] += s_i(a) * u``).

    Returns ``True`` when a C kernel handled the update; ``False`` means
    the caller must run the reference (hash + signed scatter) path.
    Covers tabulation stacks (reduced-strip layout) and polynomial stacks
    of a shared degree; mixed or exotic compositions decline.
    """
    if not (table.flags.c_contiguous and table.dtype == np.float64):
        return False
    if (
        isinstance(bucket_stack, StackedTabulationHash)
        and isinstance(sign_stack, StackedTabulationHash)
        and bucket_stack._r0 is not None
        and sign_stack._r0 is not None
        and bucket_stack._kernels is not None
    ):
        keys = TabulationHash.check_keys(keys)
        bucket_stack._kernels.update_signed(
            table, keys, values,
            bucket_stack._r0, bucket_stack._r1, bucket_stack._r2,
            sign_stack._r0, sign_stack._r1, sign_stack._r2,
        )
        return True
    if (
        isinstance(bucket_stack, StackedPolynomialHash)
        and isinstance(sign_stack, StackedPolynomialHash)
        and bucket_stack._kernels is not None
        and bucket_stack._degree == sign_stack._degree
        and table.shape[1] == bucket_stack._num_buckets
    ):
        keys = keys.astype(np.uint64, copy=False)
        bucket_stack._kernels.poly_update_signed(
            table, keys, values, bucket_stack._coeffs, sign_stack._coeffs
        )
        return True
    return False
