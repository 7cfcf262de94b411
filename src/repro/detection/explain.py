"""Alarm triage: explain a detected change from the underlying records.

A change detector hands the operator a key and an error magnitude; the
next question is always *what is this traffic?*  Given the alarmed key,
the interval, and access to that interval's records (which the offline
two-pass detector has by construction), this module summarizes the
flows behind the alarm: top talkers, port/protocol mix, and how the
volume compares to the key's recent history -- enough to tell a flash
crowd (many sources, service port) from a DoS flood (few sources or
spoofed range, one port) at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.streams.intervals import checked_index, interval_index
from repro.streams.keys import KeyScheme, make_key_scheme
from repro.streams.records import validate_records


def _format_ip(address: int) -> str:
    return ".".join(str((address >> s) & 0xFF) for s in (24, 16, 8, 0))


@dataclass
class AlarmExplanation:
    """Operator-facing summary of the traffic behind one alarm."""

    key: int
    interval: int
    record_count: int
    total_bytes: float
    distinct_sources: int
    top_sources: List[Tuple[str, float]]      # (ip, bytes) descending
    port_mix: List[Tuple[int, float]]         # (dst port, byte share)
    protocol_mix: Dict[int, float]            # proto -> byte share
    history_ratio: float                      # interval bytes / trailing mean

    @property
    def source_concentration(self) -> float:
        """Byte share of the single largest source (1.0 = one talker)."""
        if not self.top_sources or self.total_bytes == 0:
            return 0.0
        return self.top_sources[0][1] / self.total_bytes

    def classify(self) -> str:
        """Heuristic label for triage (not a verdict).

        * many sources + service port + gradual-ish -> "flash-crowd-like"
        * few sources or extreme concentration -> "dos-like"
        * otherwise -> "shift" (routing change, new deployment, ...)
        """
        if self.record_count == 0:
            return "disappearance"
        if self.source_concentration > 0.5 or self.distinct_sources <= 4:
            return "dos-like"
        if self.distinct_sources >= 32 and self.history_ratio >= 3.0:
            return "flash-crowd-like"
        return "shift"

    def render(self) -> str:
        """Multi-line report for terminals/tickets."""
        lines = [
            f"key {self.key} ({_format_ip(self.key)}), interval {self.interval}: "
            f"{self.record_count} records, {self.total_bytes:,.0f} bytes "
            f"({self.history_ratio:.1f}x trailing mean)",
            f"  assessment: {self.classify()}",
            f"  sources: {self.distinct_sources} distinct; top: "
            + ", ".join(f"{ip} ({b:,.0f}B)" for ip, b in self.top_sources[:3]),
            "  ports: "
            + ", ".join(f"{port} ({share:.0%})" for port, share in self.port_mix[:3]),
        ]
        return "\n".join(lines)


def explain_alarm(
    records: np.ndarray,
    key: int,
    interval: int,
    interval_seconds: float = 300.0,
    key_scheme="dst_ip",
    history_intervals: int = 6,
    top_sources: int = 5,
) -> AlarmExplanation:
    """Summarize the traffic behind an alarmed key.

    Parameters
    ----------
    records:
        The trace the detector ran over, in any order.
    key / interval:
        From the :class:`~repro.detection.threshold.Alarm`.
    interval_seconds:
        Must match the detector's configuration.
    key_scheme:
        Scheme name or object that produced the alarmed key.
    history_intervals:
        Trailing window for the history-ratio baseline.
    top_sources:
        How many top talkers to include.
    """
    validate_records(records)
    interval = checked_index(interval, "interval")
    if interval < 0:
        raise ValueError(f"interval must be >= 0, got {interval}")
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
    scheme: KeyScheme = (
        make_key_scheme(key_scheme) if isinstance(key_scheme, str) else key_scheme
    )
    keys = scheme.extract(records)
    timestamps = records["timestamp"]
    bad = timestamps[~np.isfinite(timestamps)]
    if len(bad):
        raise ValueError(
            f"record timestamps must be finite, got {len(bad)} non-finite "
            f"(first: {float(bad[0])})"
        )
    # The detector's own binning, so a record on an interval edge counts
    # in exactly the interval that sketched it.
    indices = interval_index(timestamps, interval_seconds)
    mask_key = keys == np.uint64(key)
    subset = records[mask_key & (indices == interval)]

    total_bytes = float(subset["bytes"].sum())

    # Top talkers.
    talkers: List[Tuple[str, float]] = []
    distinct_sources = 0
    if len(subset):
        sources, inverse = np.unique(subset["src_ip"], return_inverse=True)
        per_source = np.bincount(inverse, weights=subset["bytes"].astype(np.float64))
        distinct_sources = len(sources)
        order = np.argsort(-per_source)[:top_sources]
        talkers = [
            (_format_ip(int(sources[i])), float(per_source[i])) for i in order
        ]

    # Port and protocol mixes by byte share.
    port_mix: List[Tuple[int, float]] = []
    protocol_mix: Dict[int, float] = {}
    if total_bytes > 0:
        ports, inverse = np.unique(subset["dst_port"], return_inverse=True)
        per_port = np.bincount(inverse, weights=subset["bytes"].astype(np.float64))
        order = np.argsort(-per_port)
        port_mix = [
            (int(ports[i]), float(per_port[i]) / total_bytes) for i in order[:5]
        ]
        protos, inverse = np.unique(subset["protocol"], return_inverse=True)
        per_proto = np.bincount(inverse, weights=subset["bytes"].astype(np.float64))
        protocol_mix = {
            int(p): float(v) / total_bytes for p, v in zip(protos, per_proto)
        }

    # Trailing history baseline for this key.
    history_start = max(0, interval - history_intervals)
    in_history = mask_key & (indices >= history_start) & (indices < interval)
    spanned = max(1, interval - history_start)
    history_mean = float(records[in_history]["bytes"].sum()) / spanned
    history_ratio = (
        total_bytes / history_mean if history_mean > 0 else float("inf")
    )

    return AlarmExplanation(
        key=int(key),
        interval=interval,
        record_count=int(len(subset)),
        total_bytes=total_bytes,
        distinct_sources=distinct_sources,
        top_sources=talkers,
        port_mix=port_mix,
        protocol_mix=protocol_mix,
        history_ratio=history_ratio,
    )
