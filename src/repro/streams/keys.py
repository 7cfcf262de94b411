"""Key and value schemes: from flow records to Turnstile ``(key, update)``.

The Turnstile model is agnostic about what a key is; the paper instantiates
keys from header fields ("source and destination IP addresses, source and
destination port numbers, protocol number... network prefixes or AS numbers
to achieve higher levels of aggregation") and uses **destination IP** with
**bytes** as the update in all reported experiments.

A :class:`KeyScheme` maps a record array to a uint64 key array; a
:class:`ValueScheme` maps it to a float64 update array.  Both are
registered by name so experiment configs can reference them as strings.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict

import numpy as np

from repro.streams.records import validate_records


def dedup_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted: ``np.unique(keys)`` for 1-D integer keys.

    ``np.sort`` plus an adjacent-difference mask.  For 1-D integer input
    the result equals ``np.unique(keys)`` in values and dtype and never
    shares memory with ``keys``.  NumPy 2.x's ``np.unique`` builds a hash
    table before it sorts: on 3,500 to 65,536 uint64 keys it costs
    13-20x as much (NumPy 2.4, x86_64).
    """
    ordered = np.sort(keys)
    distinct = np.empty(len(ordered), dtype=bool)
    distinct[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]


class KeyScheme(abc.ABC):
    """Maps flow records to integer keys in ``[0, 2**bits)``."""

    #: human-readable scheme name
    name: str = ""
    #: key width in bits (sketches pick hash families based on this)
    bits: int = 32

    @abc.abstractmethod
    def extract(self, records: np.ndarray) -> np.ndarray:
        """Return the uint64 key for every record."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DstIPKey(KeyScheme):
    """Destination IPv4 address -- the key used in the paper's evaluation."""

    name = "dst_ip"
    bits = 32

    def extract(self, records: np.ndarray) -> np.ndarray:
        validate_records(records)
        return records["dst_ip"].astype(np.uint64)


class SrcIPKey(KeyScheme):
    """Source IPv4 address (useful for scan/worm origin detection)."""

    name = "src_ip"
    bits = 32

    def extract(self, records: np.ndarray) -> np.ndarray:
        validate_records(records)
        return records["src_ip"].astype(np.uint64)


class SrcDstPairKey(KeyScheme):
    """``src_ip * 2**32 + dst_ip``: the paper's example of a 64-bit key space."""

    name = "src_dst_pair"
    bits = 64

    def extract(self, records: np.ndarray) -> np.ndarray:
        validate_records(records)
        return (records["src_ip"].astype(np.uint64) << np.uint64(32)) | records[
            "dst_ip"
        ].astype(np.uint64)


class DstPrefixKey(KeyScheme):
    """Destination prefix of configurable length: coarser aggregation.

    The paper notes keys can be "entities like network prefixes... to
    achieve higher levels of aggregation".  A ``/8`` prefix collapses the
    key space to 256 signals; ``/24`` keeps subnet-level granularity.
    """

    name = "dst_prefix"

    def __init__(self, prefix_len: int = 24) -> None:
        if not 0 < prefix_len <= 32:
            raise ValueError(f"prefix_len must be in (0, 32], got {prefix_len}")
        self.prefix_len = int(prefix_len)
        self.bits = 32

    def extract(self, records: np.ndarray) -> np.ndarray:
        validate_records(records)
        shift = np.uint64(32 - self.prefix_len)
        return (records["dst_ip"].astype(np.uint64) >> shift) << shift

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DstPrefixKey(prefix_len={self.prefix_len})"


class DstPortKey(KeyScheme):
    """Destination port (service-level aggregation; worm signatures)."""

    name = "dst_port"
    bits = 16

    def extract(self, records: np.ndarray) -> np.ndarray:
        validate_records(records)
        return records["dst_port"].astype(np.uint64)


class ProtoPortKey(KeyScheme):
    """``protocol * 2**16 + dst_port``: distinguishes TCP/UDP services."""

    name = "proto_port"
    bits = 24

    def extract(self, records: np.ndarray) -> np.ndarray:
        validate_records(records)
        return (records["protocol"].astype(np.uint64) << np.uint64(16)) | records[
            "dst_port"
        ].astype(np.uint64)


class ValueScheme:
    """Maps flow records to float64 updates (named extractor)."""

    def __init__(self, name: str, extractor: Callable[[np.ndarray], np.ndarray]):
        self.name = name
        self._extractor = extractor

    def extract(self, records: np.ndarray) -> np.ndarray:
        """Return the update value for every record."""
        validate_records(records)
        return self._extractor(records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ValueScheme({self.name!r})"


_KEY_SCHEMES: Dict[str, Callable[..., KeyScheme]] = {
    "dst_ip": DstIPKey,
    "src_ip": SrcIPKey,
    "src_dst_pair": SrcDstPairKey,
    "dst_prefix": DstPrefixKey,
    "dst_port": DstPortKey,
    "proto_port": ProtoPortKey,
}

_VALUE_SCHEMES: Dict[str, ValueScheme] = {
    "bytes": ValueScheme("bytes", lambda r: r["bytes"].astype(np.float64)),
    "packets": ValueScheme("packets", lambda r: r["packets"].astype(np.float64)),
    "count": ValueScheme("count", lambda r: np.ones(len(r), dtype=np.float64)),
}


def make_key_scheme(name: str, **params) -> KeyScheme:
    """Construct a key scheme by name (e.g. ``"dst_ip"``)."""
    try:
        factory = _KEY_SCHEMES[name]
    except KeyError:
        known = ", ".join(sorted(_KEY_SCHEMES))
        raise ValueError(f"unknown key scheme {name!r}; known: {known}") from None
    return factory(**params)


def make_value_scheme(name: str) -> ValueScheme:
    """Look up a value scheme by name (``"bytes"``, ``"packets"``, ``"count"``)."""
    try:
        return _VALUE_SCHEMES[name]
    except KeyError:
        known = ", ".join(sorted(_VALUE_SCHEMES))
        raise ValueError(f"unknown value scheme {name!r}; known: {known}") from None
