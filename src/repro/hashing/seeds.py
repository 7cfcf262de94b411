"""Deterministic seed derivation for families of hash functions.

A k-ary sketch needs ``H`` *independent* hash functions.  The paper obtains
them by drawing each row's function with an independent seed ("Different
h_i are constructed using independent seeds, and are therefore
independent").  We derive per-row seeds from a single master seed with
:class:`numpy.random.SeedSequence`, which guarantees well-separated streams,
so an entire sketch (and hence an entire experiment) is reproducible from
one integer.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

#: Master seeds are confined to 63 bits so they survive every layer that
#: carries them: NumPy's ``SeedSequence`` (non-negative entropy), the wire
#: formats' int64 seed field, and checkpoint containers.
MAX_MASTER_SEED = 2**63 - 1


def validate_master_seed(seed: Optional[int]) -> Optional[int]:
    """Normalize and range-check a master seed (``None`` passes through).

    Seeds are validated where schemas are *constructed*, not where sketches
    are serialized: a seed that cannot ride the wire (negative, or >= 2**63)
    must fail early and loudly, instead of permitting a sketch that can be
    built but never saved.
    """
    if seed is None:
        return None
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(
            f"master seed must be an int or None, got {type(seed).__name__}"
        )
    seed = int(seed)
    if not 0 <= seed <= MAX_MASTER_SEED:
        raise ValueError(
            f"master seed must be in [0, 2**63), got {seed}; seeds outside "
            "this range cannot be serialized (int64 wire field) or fed to "
            "numpy.random.SeedSequence"
        )
    return seed


def derive_seeds(master_seed: Optional[int], count: int) -> List[int]:
    """Derive ``count`` independent 63-bit seeds from ``master_seed``.

    ``None`` draws fresh OS entropy (non-reproducible), mirroring NumPy's
    convention.  The same ``(master_seed, count)`` always returns the same
    list, and prefixes are stable: ``derive_seeds(s, 5)[:3] ==
    derive_seeds(s, 3)``.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    ss = np.random.SeedSequence(validate_master_seed(master_seed))
    return [int(child.generate_state(1, dtype=np.uint64)[0] >> 1) for child in ss.spawn(count)]
