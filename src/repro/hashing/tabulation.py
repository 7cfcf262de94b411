"""Tabulation-based 4-universal hashing (Thorup-Zhang).

This is the scheme the paper uses for its fast implementation ("we construct
them using the fast tabulation-based method developed in [33]" -- Thorup &
Zhang, *Tabulation based 4-universal hashing with applications to second
moment estimation*).

For a 32-bit key split into two 16-bit characters ``c0`` (low) and ``c1``
(high), the hash is

    ``h(x) = T0[c0]  XOR  T1[c1]  XOR  T2[c0 + c1]``

where ``T0``/``T1`` have ``2**16`` entries, the *derived-character* table
``T2`` has ``2**17`` entries (``c0 + c1 < 2**17``), and all entries are
independent uniform 64-bit values.  Thorup and Zhang prove this family is
4-universal: for any four distinct keys, the multiset of looked-up cells
contains at least one cell that appears an odd number of times, making the
XOR uniform and independent of the rest.

Evaluation is three NumPy fancy-indexing gathers plus two XORs -- far
cheaper than four 61-bit modular multiplications -- which is why this is the
default family for streaming UPDATE paths.

Domain note: this implementation supports keys up to 32 bits, matching the
paper's experiments (destination IP addresses).  Wider keys should use
:class:`repro.hashing.carter_wegman.PolynomialHash`; the sketch layer
selects automatically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hashing.universal import HashFamily, register_family

_CHAR_BITS = 16
_CHAR_MASK = (1 << _CHAR_BITS) - 1


def _draw_table(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` independent uniform *full-width* uint64 entries.

    ``rng.integers(0, 1 << 63, ...)`` would leave the top bit always zero
    (only 63 random bits); ``endpoint=True`` with high ``2**64 - 1`` covers
    the entire uint64 range.
    """
    return rng.integers(
        0, (1 << 64) - 1, size=size, dtype=np.uint64, endpoint=True
    )


@register_family("tabulation")
class TabulationHash(HashFamily):
    """4-universal tabulation hash for 32-bit keys.

    Parameters
    ----------
    num_buckets:
        Output range ``K``.  Power-of-two values preserve exact
        4-universality (low bits of a 4-independent value are
        4-independent); other values introduce a negligible modulo bias.
    seed:
        Seed for filling the three lookup tables.

    Notes
    -----
    Memory cost is ``(2**16 + 2**16 + 2**17) * 8`` bytes = 2 MiB per
    function.  The paper's Table 1 measures exactly this scheme: "each hash
    computation produces 8 independent 16-bit hash values", i.e. the tables
    are wide enough that one evaluation serves several sketch rows; here we
    keep one function object per row for clarity and let NumPy amortize the
    gathers.
    """

    independence = 4
    #: two 16-bit characters
    key_bits = 2 * _CHAR_BITS

    def __init__(self, num_buckets: int, seed: Optional[int] = None) -> None:
        super().__init__(num_buckets, seed)
        rng = np.random.default_rng(seed)
        # Independent uniform full-width 64-bit entries (all 64 bits random);
        # the XOR of any odd subset is uniform.
        self._t0 = _draw_table(rng, 1 << _CHAR_BITS)
        self._t1 = _draw_table(rng, 1 << _CHAR_BITS)
        self._t2 = _draw_table(rng, 1 << (_CHAR_BITS + 1))

    @classmethod
    def check_keys(cls, keys: np.ndarray) -> np.ndarray:
        """``keys`` as uint64; ``ValueError`` if one is wider than ``key_bits``."""
        keys = keys.astype(np.uint64, copy=False)
        if keys.size and keys.max() >> np.uint64(cls.key_bits):
            raise ValueError(
                f"TabulationHash supports keys up to {cls.key_bits} bits; "
                "use PolynomialHash for wider keys"
            )
        return keys

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        keys = self.check_keys(keys)
        c0 = (keys & np.uint64(_CHAR_MASK)).astype(np.int64)
        c1 = (keys >> np.uint64(_CHAR_BITS)).astype(np.int64)
        h = self._t0[c0] ^ self._t1[c1] ^ self._t2[c0 + c1]
        return (h % np.uint64(self._num_buckets)).astype(np.int64)

    @property
    def table_bytes(self) -> int:
        """Total memory used by the lookup tables, in bytes."""
        return self._t0.nbytes + self._t1.nbytes + self._t2.nbytes
