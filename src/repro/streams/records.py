"""Flow record layout: a NetFlow-v5-like structured dtype.

The paper processes "netflow dumps from ten different routers in the
backbone of a tier-1 ISP".  We model each flow record with the fields the
experiments actually consume -- timestamps, the IPv4 address pair, ports,
protocol, and byte/packet totals -- as a NumPy structured array, which
gives columnar access (vectorized key extraction, time slicing) at NetFlow
file densities.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

#: One flow record.  36 bytes per record (packed, bytes field 4-byte aligned).
FLOW_RECORD_DTYPE = np.dtype(
    [
        ("timestamp", np.float64),  # flow start, seconds since trace epoch
        ("src_ip", np.uint32),
        ("dst_ip", np.uint32),
        ("src_port", np.uint16),
        ("dst_port", np.uint16),
        ("protocol", np.uint8),
        ("_pad", np.uint8, (3,)),   # keeps bytes field 4-byte aligned
        ("packets", np.uint32),
        ("bytes", np.uint64),
    ]
)


def empty_records(count: int = 0) -> np.ndarray:
    """Allocate a zeroed record array of the given length."""
    return np.zeros(count, dtype=FLOW_RECORD_DTYPE)


def make_records(
    timestamps,
    dst_ips,
    byte_counts,
    src_ips=None,
    src_ports=None,
    dst_ports=None,
    protocols=None,
    packet_counts=None,
) -> np.ndarray:
    """Assemble a record array from per-field arrays.

    Only the fields the paper's experiments use (timestamp, destination IP,
    bytes) are required; the rest default to zero / TCP.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    n = len(timestamps)
    records = empty_records(n)
    records["timestamp"] = timestamps
    records["dst_ip"] = np.asarray(dst_ips, dtype=np.uint32)
    records["bytes"] = np.asarray(byte_counts, dtype=np.uint64)
    if src_ips is not None:
        records["src_ip"] = np.asarray(src_ips, dtype=np.uint32)
    if src_ports is not None:
        records["src_port"] = np.asarray(src_ports, dtype=np.uint16)
    if dst_ports is not None:
        records["dst_port"] = np.asarray(dst_ports, dtype=np.uint16)
    records["protocol"] = (
        np.asarray(protocols, dtype=np.uint8) if protocols is not None else 6
    )
    if packet_counts is not None:
        records["packets"] = np.asarray(packet_counts, dtype=np.uint32)
    else:
        # Rough packet count: bytes / 1000 rounded up, at least 1.
        records["packets"] = np.maximum(records["bytes"] // 1000, 1).astype(np.uint32)
    return records


def validate_records(records: np.ndarray) -> None:
    """Raise ``ValueError`` if ``records`` is not a valid flow record array."""
    if not isinstance(records, np.ndarray) or records.dtype != FLOW_RECORD_DTYPE:
        raise ValueError(
            f"expected array of dtype FLOW_RECORD_DTYPE, got "
            f"{getattr(records, 'dtype', type(records))}"
        )
    if records.ndim != 1:
        raise ValueError(f"records must be one-dimensional, got {records.ndim}D")


def finite_time_span(timestamps: np.ndarray) -> Tuple[float, float]:
    """First and last of time-sorted ``timestamps``, both checked finite.

    Sorted, NaN and +inf land last and -inf first, so the two ends vet
    every record in O(1): raises ``ValueError`` unless both are finite.
    ``timestamps`` must be non-empty.
    """
    first, last = float(timestamps[0]), float(timestamps[-1])
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ValueError(
            f"record timestamps must be finite, got time-sorted records "
            f"spanning [{first}, {last}]"
        )
    return first, last


def sort_by_time(records: np.ndarray) -> np.ndarray:
    """Return the records sorted by timestamp (stable)."""
    validate_records(records)
    order = np.argsort(records["timestamp"], kind="stable")
    return records[order]


def concat_records(parts: Sequence[np.ndarray], sort: bool = True) -> np.ndarray:
    """Concatenate record arrays, optionally re-sorting by time.

    Used by the traffic generator to merge background traffic with injected
    anomaly records.
    """
    for part in parts:
        validate_records(part)
    merged = np.concatenate(parts) if parts else empty_records(0)
    return sort_by_time(merged) if sort and len(merged) else merged
