"""Universal hash families used by sketch data structures.

The k-ary sketch of the paper requires 4-universal hash functions to obtain
provable accuracy guarantees for both per-key estimation (Theorems 1-3) and
second-moment estimation (Theorems 4-5).  This package provides:

* :class:`~repro.hashing.carter_wegman.PolynomialHash` -- Carter-Wegman
  polynomial hashing over the Mersenne prime ``2**61 - 1``.  A degree-``k-1``
  polynomial with random coefficients is exactly ``k``-universal.  This is
  the reference family: correct for any key width, moderately fast.

* :class:`~repro.hashing.tabulation.TabulationHash` -- tabulation-based
  4-universal hashing following Thorup and Zhang (the scheme the paper itself
  uses, citing [33]).  Keys are split into 16-bit characters; the hash is an
  XOR of per-character table lookups plus a derived-character lookup.  Table
  lookups vectorize extremely well with NumPy, making this the fast path for
  streaming updates.

* :class:`~repro.hashing.universal.HashFamily` -- the abstract interface both
  implement, plus :func:`~repro.hashing.universal.make_family` to construct a
  family by name.

All families map integer keys in ``[0, 2**64)`` to buckets ``[0, K)`` and
support vectorized evaluation over NumPy arrays of keys.
"""

from repro.hashing._kernels import (
    KERNEL_NAMES,
    get_num_threads,
    kernel_call_counts,
    kernel_seconds,
    kernel_thread_count,
    set_num_threads,
)
from repro.hashing.carter_wegman import PolynomialHash, TwoUniversalHash
from repro.hashing.seeds import (
    MAX_MASTER_SEED,
    derive_seeds,
    validate_master_seed,
)
from repro.hashing.stacked import (
    LoopStackedHash,
    StackedHash,
    StackedPolynomialHash,
    StackedTabulationHash,
    fused_signed_update,
    gather_indices,
    make_stacked,
    mv_combine2_planes,
    mv_fold_planes,
    mv_merge_planes,
    mv_recover_mask,
    mv_vote_indices,
)
from repro.hashing.tabulation import TabulationHash
from repro.hashing.universal import HashFamily, family_key_bits, make_family

__all__ = [
    "HashFamily",
    "LoopStackedHash",
    "PolynomialHash",
    "StackedHash",
    "StackedPolynomialHash",
    "StackedTabulationHash",
    "TabulationHash",
    "TwoUniversalHash",
    "derive_seeds",
    "family_key_bits",
    "validate_master_seed",
    "KERNEL_NAMES",
    "MAX_MASTER_SEED",
    "fused_signed_update",
    "gather_indices",
    "get_num_threads",
    "kernel_call_counts",
    "kernel_seconds",
    "kernel_thread_count",
    "make_family",
    "set_num_threads",
    "make_stacked",
    "mv_combine2_planes",
    "mv_fold_planes",
    "mv_merge_planes",
    "mv_recover_mask",
    "mv_vote_indices",
]
