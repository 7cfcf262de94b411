"""Abstract interface for universal hash families.

A *k-universal* (a.k.a. *k-independent*) family maps any ``k`` distinct keys
to outputs that are uniform and mutually independent.  The k-ary sketch
needs 4-universality: 2-universality suffices for unbiased point estimates,
but the variance analysis of ``ESTIMATEF2`` (Theorem 4 of the paper) relies
on 4-wise independence.

Every family here maps 64-bit integer keys to buckets ``[0, num_buckets)``
and exposes both scalar and vectorized evaluation.  Concrete families:

* ``"tabulation"`` -- :class:`repro.hashing.tabulation.TabulationHash`
* ``"polynomial"`` -- :class:`repro.hashing.carter_wegman.PolynomialHash`
* ``"two-universal"`` -- :class:`repro.hashing.carter_wegman.TwoUniversalHash`
  (deliberately weaker; used in ablation experiments)
"""

from __future__ import annotations

import abc
import copy
from typing import Optional, Union

import numpy as np

ArrayLike = Union[int, np.ndarray]


class HashFamily(abc.ABC):
    """A single randomly drawn hash function from a universal family.

    Instances are immutable once constructed: the random coefficients or
    tables are drawn from the ``seed`` at construction time, so the same
    ``(seed, num_buckets)`` pair always yields the same function.  This is
    what makes sketches *mergeable across machines*: two k-ary sketches can
    only be COMBINEd when built from identical hash functions.
    """

    #: independence level guaranteed by the family (2 or 4 here)
    independence: int = 0
    #: the family hashes keys in ``[0, 2**key_bits)``
    key_bits: int = 64

    def __init__(self, num_buckets: int, seed: Optional[int] = None) -> None:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self._num_buckets = int(num_buckets)
        self._seed = seed

    @property
    def num_buckets(self) -> int:
        """Size of the output range ``[0, num_buckets)``."""
        return self._num_buckets

    @property
    def seed(self) -> Optional[int]:
        """Seed the function was drawn with (``None`` means OS entropy)."""
        return self._seed

    def with_buckets(self, num_buckets: int) -> "HashFamily":
        """This function with its output range changed to ``num_buckets``.

        Every family here draws its state (lookup tables, coefficients)
        from the seed alone and reduces a width-independent 64-bit value
        modulo the bucket count last, so the copy shares that state
        instead of drawing it again.  It hashes every key as
        ``type(self)(num_buckets, seed=self.seed)`` does.
        """
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        twin = copy.copy(self)
        twin._num_buckets = int(num_buckets)
        return twin

    @abc.abstractmethod
    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Hash a NumPy array of uint64 keys to an array of bucket indices."""

    def __call__(self, keys: ArrayLike) -> ArrayLike:
        """Hash scalar or array keys.

        Scalars return a Python int; arrays return ``np.ndarray`` of
        ``int64`` bucket indices.
        """
        if np.isscalar(keys):
            out = self.hash_array(np.asarray([keys], dtype=np.uint64))
            return int(out[0])
        return self.hash_array(np.asarray(keys, dtype=np.uint64))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(num_buckets={self._num_buckets}, "
            f"seed={self._seed})"
        )


_FAMILIES = {}


def register_family(name: str):
    """Class decorator registering a family under ``name`` for lookup."""

    def _register(cls):
        _FAMILIES[name] = cls
        return cls

    return _register


def _family_class(name: str) -> type:
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown hash family {name!r}; known: {known}") from None


def family_key_bits(name: str) -> int:
    """Width in bits of the keys the family registered under ``name`` hashes."""
    return _family_class(name).key_bits


def make_family(name: str, num_buckets: int, seed: Optional[int] = None) -> HashFamily:
    """Construct a hash function from the family registered under ``name``.

    Parameters
    ----------
    name:
        One of ``"tabulation"``, ``"polynomial"``, ``"two-universal"``.
    num_buckets:
        Output range size ``K``.
    seed:
        Seed for drawing the function.  Functions drawn with distinct seeds
        are independent, which is how the sketch obtains its ``H``
        independent rows.
    """
    return _family_class(name)(num_buckets, seed=seed)
