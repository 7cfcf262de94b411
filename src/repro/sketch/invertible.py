"""Invertible k-ary sketch: replay-free heavy-changer key recovery.

The plain k-ary sketch can *score* any key but cannot *enumerate* the keys
it saw -- detection needs a second pass over the traffic (or an online
candidate list) to know which keys to probe.  This module augments every
``(row, bucket)`` cell with one MV-style candidate field, following the
majority-vote scheme of the MV-sketch (Tang et al., "A Fast and Compact
Invertible Sketch for Network-Wide Heavy Flow Detection"):

candidate maintenance (per UPDATE of key ``a`` with weight ``w``)
    ``candidate == a``  ->  ``vote += w``
    ``vote >= w``       ->  ``vote -= w``
    otherwise           ->  ``candidate = a``; ``vote = w - vote``

This is the Boyer-Moore majority element argument per bucket: whichever key
contributes the majority of a bucket's mass ends up holding the candidate
slot.  A heavy changer dominates every bucket it hashes to (in the error
sketch, after forecasting), so walking the ``H x K`` buckets and collecting
candidates whose *single-row* unbiased estimate clears the alarm threshold
recovers the heavy-changer keys in ``O(H * K)`` -- no second pass over the
stream.  Each recovered candidate is then verified with the ordinary
median ESTIMATE, so false bucket winners cost a probe, never a report.

Storage layout
--------------
One contiguous ``(3, H, K)`` float64 block:

* plane 0 -- the ordinary k-ary counters.  The sketch's counter table
  is this plane (a contiguous slice of a contiguous block is itself
  contiguous), so every operation inherited from
  :class:`~repro.sketch.kary.KArySketch` (UPDATE scatter, ESTIMATE,
  ESTIMATEF2, prescreen gathers, fused kernels) runs on it exactly as on
  a plain sketch.
* plane 1 -- candidate keys, stored as the ``uint64`` bit-cast view of the
  float64 plane.  Same-dtype copies are memcpy, so key bit patterns
  survive serialization and checkpointing without a separate integer
  buffer.
* plane 2 -- candidate votes (nonnegative float64).

Counter bit-identity
--------------------
Plane 0 is updated by the inherited stream-order scatter, so an invertible
sketch fed a stream has counters bit-identical to a plain
:class:`KArySketch` fed the same stream -- every estimate, threshold, and
report built on the counters is unchanged by the candidate planes.

COMBINE
-------
Counter planes combine linearly as always.  Candidate planes merge with
the same MV rule (votes scaled by ``|c_i|``), folded pairwise left to
right -- in ``combine_into``, and cell by cell inside the forecast
step's statement sweep, which hands the kernel all three planes.  The
fold is order-*dependent* (MV is not associative), so a merged sketch
can elect a different bucket candidate than one stream's votes would;
the counter planes remain bit-exact regardless of merge order because
integral float64 sums are order-independent.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.hashing import (
    mv_combine2_planes,
    mv_fold_planes,
    mv_merge_planes,
    mv_recover_mask,
)
from repro.sketch.base import (
    LinearSummary,
    SummaryConvention,
    accumulate_arrays,
    resolve_folded_schema,
)
from repro.sketch.kary import KArySchema, KArySketch
from repro.streams.keys import dedup_keys


class InvertibleKArySchema(KArySchema):
    """Schema for invertible k-ary sketches.

    Identical hash structure to :class:`KArySchema` -- same derived per-row
    functions for the same ``(depth, width, seed, family)`` -- but its
    sketches carry candidate planes and are *not* COMBINE-compatible with
    plain k-ary sketches (merging would silently drop votes), so equality
    is restricted to other invertible schemas.
    """

    kind = "invertible"

    @property
    def table_shape(self) -> tuple:
        """Counters, candidate keys and votes: ``(3, H, K)``."""
        return (3, self._depth, self._width)


class InvertibleKArySketch(KArySketch):
    """k-ary sketch with per-bucket MV candidate (key, vote) fields."""

    __slots__ = ("_store", "_cand_keys", "_cand_votes")

    def __init__(
        self,
        schema: InvertibleKArySchema,
        store: Optional[np.ndarray] = None,
    ) -> None:
        if not isinstance(schema, InvertibleKArySchema):
            raise TypeError(
                "InvertibleKArySketch requires an InvertibleKArySchema"
            )
        super().__init__(schema, store)
        # The base checked and holds the whole block; the inherited k-ary
        # operations run on plane 0.
        self._store = self._table
        self._table = self._store[0]
        self._cand_keys = self._store[1].view(np.uint64)
        self._cand_votes = self._store[2]

    # -- accessors ---------------------------------------------------------

    @property
    def table(self) -> np.ndarray:
        """The full ``(3, H, K)`` store (read-only view).

        Plane 0 holds the counters, plane 1 the candidate keys (as float64
        bit patterns; view as ``uint64`` to read them), plane 2 the votes.
        Exposing the whole store here is what lets serialization and
        checkpoints round-trip the candidate planes without special-casing
        this kind.
        """
        view = self._store.view()
        view.flags.writeable = False
        return view

    @property
    def counters(self) -> np.ndarray:
        """The ``H x K`` counter plane alone (read-only view)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    @property
    def candidate_keys(self) -> np.ndarray:
        """Per-bucket candidate keys, shape ``(H, K)`` uint64 (read-only)."""
        view = self._cand_keys.view()
        view.flags.writeable = False
        return view

    @property
    def candidate_votes(self) -> np.ndarray:
        """Per-bucket candidate votes, shape ``(H, K)`` float64 (read-only)."""
        view = self._cand_votes.view()
        view.flags.writeable = False
        return view

    @property
    def nbytes(self) -> int:
        """Memory used by counters plus candidate planes."""
        return self._store.nbytes

    def copy(self) -> "InvertibleKArySketch":
        """Return an independent copy sharing the schema."""
        return InvertibleKArySketch(self._schema, self._store.copy())

    def reset(self) -> None:
        """Zero counters, candidate keys, and votes in place."""
        self._store[:] = 0.0

    # -- UPDATE ------------------------------------------------------------

    def update_batch(self, keys, values) -> None:
        """UPDATE counters and candidate fields for a batch.

        The counter plane is updated by the inherited stream-order scatter
        first, so it stays bit-identical to a plain k-ary sketch fed the
        same stream.  The candidate planes are then updated with the batch
        aggregated per unique key (ascending key order, per-key summed
        weights) -- a canonical operation sequence that the C kernels and
        the NumPy fallback replay identically, and that makes the vote
        pass O(unique keys) rather than O(records).  Both the scatter and
        the vote pass shard large batches across the kernel thread pool
        by sketch row (one writer per row), so the tables stay
        bit-identical at any thread count.
        """
        keys = SummaryConvention.as_key_array(keys)
        values = SummaryConvention.as_value_array(values, len(keys))
        self._schema._stacked.scatter_add(self._table, keys, values)
        if len(keys) == 0:
            return
        uniq, inverse = np.unique(keys, return_inverse=True)
        weights = np.bincount(inverse, weights=values, minlength=len(uniq))
        self._schema._stacked.mv_vote(
            self._cand_keys, self._cand_votes, uniq, weights
        )

    # -- RECOVER -----------------------------------------------------------

    def recover_candidates(self, threshold: float = 0.0) -> np.ndarray:
        """Walk the buckets and return candidate heavy keys, ``O(H * K)``.

        For every bucket the *single-row* unbiased estimate
        ``(T[i][j] - sum(S)/K) / (1 - 1/K)`` is computed; buckets whose
        estimate magnitude clears ``threshold`` (strictly exceeds zero when
        ``threshold == 0``, matching the detection layer's zero-threshold
        alarm rule) and that hold a live vote surrender their candidate
        key.  If a key's true change magnitude has ``|median| >= threshold``
        then at least ``ceil((H+1)/2)`` of its buckets pass the magnitude
        mask, so the key is recovered whenever it won the vote in at least
        one of those buckets -- the MV majority argument makes that the
        overwhelmingly common case for genuine heavy changers.

        Returns the unique candidate keys as a ``uint64`` array, sorted
        ascending.  Callers verify each against the full median estimator
        (:meth:`estimate_batch`), so recovery errs on the side of
        returning a candidate.
        """
        if threshold < 0.0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        k = self._schema.width
        mask = mv_recover_mask(
            self._table,
            self._cand_votes,
            self.total() / k,
            1.0 - 1.0 / k,
            threshold,
        )
        return dedup_keys(self._cand_keys[mask])

    # -- FOLD --------------------------------------------------------------

    def fold_width(
        self, schema: Optional[InvertibleKArySchema] = None
    ) -> "InvertibleKArySketch":
        """Halve the width: exact counter fold + MV merge of candidates.

        The counter plane folds exactly like the plain k-ary sketch
        (bucket ``j`` and ``j + K/2`` sum into bucket ``j mod K/2`` of
        the half-width schema).  The candidate planes cannot fold
        linearly -- two buckets collapsing into one must elect a single
        candidate -- so the right half merges into the left with the
        same MV rule COMBINE uses (unit coefficient): the surviving
        candidate is whichever key's vote mass dominates the merged
        bucket.  Counters stay exact; candidate recovery after a fold is
        best-effort exactly as it is after any COMBINE.
        """
        folded = resolve_folded_schema(self._schema, schema)
        half = folded.width
        store = np.empty((3, self._schema.depth, half), dtype=np.float64)
        np.add(self._table[:, :half], self._table[:, half:], out=store[0])
        result = InvertibleKArySketch(folded, store)
        np.copyto(result._cand_keys, self._cand_keys[:, :half])
        np.copyto(result._cand_votes, self._cand_votes[:, :half])
        mv_merge_planes(
            result._cand_keys,
            result._cand_votes,
            np.ascontiguousarray(self._cand_keys[:, half:]),
            np.ascontiguousarray(self._cand_votes[:, half:]),
            1.0,
        )
        return result

    # -- COMBINE -----------------------------------------------------------

    def combine_into(
        self,
        terms: Sequence[Tuple[float, LinearSummary]],
        scratch: Optional[np.ndarray] = None,
    ) -> "InvertibleKArySketch":
        """In-place COMBINE of counters plus MV merge of candidate planes.

        Counters combine linearly (bit-identical to the plain sketch).
        Candidate planes fold pairwise left to right with the MV rule,
        votes scaled by ``|c_i|`` -- a negated sketch carries the same
        evidence about *which* key dominates a bucket, only the counter
        sign flips.  The receiver must not itself appear in ``terms``.
        The forecast step does not come here: it hands these planes to
        its statement sweep (:meth:`_sweep_table`), which folds them by
        the same rule in the pass that combines the counters.
        """
        merged = self._check_terms(terms)
        accumulate_arrays(self._table, merged, scratch)
        self._merge_candidates(terms)
        return self

    def _sweep_table(self) -> tuple:
        """Counters, candidate keys and votes, for statement sweeps.

        :func:`~repro.sketch.base.sweep_statements` combines the counter
        plane linearly and folds the candidate planes by the MV rule, as
        :meth:`combine_into` does.
        """
        return (self._table, self._cand_keys, self._cand_votes)

    def _linear_combination(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> "InvertibleKArySketch":
        # combine_into overwrites every plane (accumulate_arrays writes
        # the first counter term directly; the candidate fold copies the
        # first term's planes, and zeroes them when there are no terms),
        # so the fresh store can skip page-zeroing.
        shape = (3, self._schema.depth, self._schema.width)
        result = InvertibleKArySketch(
            self._schema, np.empty(shape, dtype=np.float64)
        )
        return result.combine_into(terms)

    def _merge_candidates(
        self, terms: Sequence[Tuple[float, LinearSummary]]
    ) -> None:
        """Fold the terms' candidate planes into this sketch's, MV-style."""
        if len(terms) == 2:
            # Fused two-term fold: the operators and the allocating step().
            (ca, sa), (cb, sb) = terms
            mv_combine2_planes(
                self._cand_keys, self._cand_votes,
                sa._cand_keys, sa._cand_votes, ca,
                sb._cand_keys, sb._cand_votes, cb,
            )
            return
        mv_fold_planes(
            self._cand_keys, self._cand_votes,
            [(c, s._cand_keys, s._cand_votes) for c, s in terms],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        live = int(np.count_nonzero(self._cand_votes))
        return (
            f"InvertibleKArySketch(H={self._schema.depth}, "
            f"K={self._schema.width}, total={self.total():.6g}, "
            f"live_candidates={live})"
        )


InvertibleKArySchema.sketch_type = InvertibleKArySketch
