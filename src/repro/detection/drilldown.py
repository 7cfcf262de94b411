"""Hierarchical drill-down: locate changes from coarse to fine aggregation.

The paper notes keys can be "entities like network prefixes or AS numbers
to achieve higher levels of aggregation" (Section 2.1).  Operators use
that hierarchy in the obvious way: watch a few coarse signals cheaply,
and when a /8 moves, drill into its /16s, then /24s, then hosts.

:class:`PrefixDrilldown` runs one two-pass detector per prefix level over
the same record stream (each level is just a different key scheme -- the
linearity of sketches means per-level summaries are exact aggregations of
each other in expectation), then reports, for each alarmed coarse prefix,
the alarmed finer prefixes underneath it.  The result is an attribution
tree: ``/8 10.0.0.0 -> /16 10.2.0.0 -> /24 10.2.3.0 -> host 10.2.3.4``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.detection.twopass import OfflineTwoPassDetector
from repro.sketch import KArySchema
from repro.streams.keys import DstIPKey, DstPrefixKey
from repro.streams.intervals import slice_by_interval
from repro.streams.model import KeyedUpdates


def _mask(prefix_len: int) -> int:
    return ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0


def format_prefix(prefix: int, prefix_len: int) -> str:
    """Dotted-quad ``a.b.c.d/len`` rendering of a prefix key."""
    octets = [(prefix >> shift) & 0xFF for shift in (24, 16, 8, 0)]
    return ".".join(str(o) for o in octets) + f"/{prefix_len}"


@dataclass
class DrilldownNode:
    """One alarmed prefix and its alarmed children at the next level.

    ``orphan`` marks an alarmed node whose coarser parent stayed under
    threshold -- it is surfaced as its own root instead of being silently
    dropped (a /24 spike diluted inside a quiet /8 must still appear).
    """

    prefix: int
    prefix_len: int
    estimated_error: float
    children: List["DrilldownNode"] = field(default_factory=list)
    orphan: bool = False

    def render(self, indent: int = 0) -> str:
        """Human-readable attribution tree."""
        line = (
            " " * indent
            + f"{format_prefix(self.prefix, self.prefix_len)}  "
            f"error={self.estimated_error:+.4g}"
            + ("  [orphan]" if self.orphan else "")
        )
        parts = [line]
        parts.extend(child.render(indent + 2) for child in self.children)
        return "\n".join(parts)

    def leaves(self) -> List["DrilldownNode"]:
        """Finest-level alarmed nodes under (and including) this one."""
        if not self.children:
            return [self]
        out: List[DrilldownNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out


@dataclass
class DrilldownReport:
    """All alarmed attribution trees for one interval."""

    interval: int
    roots: List[DrilldownNode]

    def render(self) -> str:
        """The full forest as text."""
        if not self.roots:
            return f"interval {self.interval}: no significant changes"
        body = "\n".join(root.render() for root in self.roots)
        return f"interval {self.interval}:\n{body}"


def build_attribution_forest(
    levels: Sequence[int], per_level: Sequence[Dict[int, float]]
) -> List[DrilldownNode]:
    """Attach alarmed prefixes coarse-to-fine; orphans become roots.

    ``per_level[i]`` maps each alarmed prefix at level ``levels[i]`` to
    its estimated error.  Every alarmed node appears in the returned
    forest exactly once: under its alarmed parent when the parent also
    cleared threshold, otherwise as an *orphan root* (flagged on the
    node).  Alarmed-parent roots come first, sorted by error magnitude;
    orphan roots follow, coarse levels first, each level sorted the same
    way -- so a diluted fine-level spike whose coarse aggregate stayed
    quiet is still reported instead of vanishing.
    """
    if len(per_level) != len(levels):
        raise ValueError(
            f"per_level has {len(per_level)} entries for {len(levels)} levels"
        )
    attached: List[set] = [set() for _ in levels]

    def build(
        level: int, prefix: int, error: float, orphan: bool = False
    ) -> DrilldownNode:
        node = DrilldownNode(
            prefix=prefix, prefix_len=levels[level],
            estimated_error=error, orphan=orphan,
        )
        if level + 1 < len(levels):
            parent_mask = _mask(levels[level])
            for child_prefix, child_error in per_level[level + 1].items():
                if (child_prefix & parent_mask) == prefix:
                    attached[level + 1].add(child_prefix)
                    node.children.append(
                        build(level + 1, child_prefix, child_error)
                    )
            node.children.sort(key=lambda c: -abs(c.estimated_error))
        return node

    roots = [
        build(0, prefix, error)
        for prefix, error in sorted(
            per_level[0].items(), key=lambda kv: -abs(kv[1])
        )
    ]
    # Coarse-first orphan sweep: building a level-j orphan attaches its
    # alarmed descendants, so they are excluded from later sweeps.
    for level in range(1, len(levels)):
        orphans = sorted(
            (
                (prefix, error)
                for prefix, error in per_level[level].items()
                if prefix not in attached[level]
            ),
            key=lambda kv: -abs(kv[1]),
        )
        for prefix, error in orphans:
            attached[level].add(prefix)
            roots.append(build(level, prefix, error, orphan=True))
    return roots


class PrefixDrilldown:
    """Multi-level change detection over destination-prefix hierarchies.

    Parameters
    ----------
    levels:
        Prefix lengths from coarse to fine; 32 means host level.  Must be
        strictly increasing.
    schema_factory:
        Called with a level index to build that level's k-ary schema.
        Coarse levels have tiny key spaces; the default shrinks K
        accordingly.
    model / t_fraction / model_params:
        Forecast model (per level, independently warmed) and threshold.
    """

    def __init__(
        self,
        levels: Sequence[int] = (8, 16, 24, 32),
        model: str = "ewma",
        t_fraction: float = 0.1,
        schema_factory=None,
        seed: int = 0,
        **model_params,
    ) -> None:
        levels = tuple(int(l) for l in levels)
        if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels must be strictly increasing, got {levels}")
        if any(not 1 <= l <= 32 for l in levels):
            raise ValueError(f"levels must be in [1, 32], got {levels}")
        self.levels = levels
        self.model = model
        self.t_fraction = float(t_fraction)
        self.model_params = model_params
        if schema_factory is None:
            def schema_factory(index):
                width = min(1 << max(self.levels[index] - 4, 6), 32768)
                return KArySchema(depth=5, width=width, seed=seed + index)
        self._schemas = [schema_factory(i) for i in range(len(levels))]
        self._key_schemes = [
            DstIPKey() if level == 32 else DstPrefixKey(prefix_len=level)
            for level in levels
        ]

    def run(self, records: np.ndarray, interval_seconds: float = 300.0):
        """Yield a :class:`DrilldownReport` per (post-warm-up) interval."""
        # One detector per level over the shared time slicing, which vets
        # the records; the levels step in lockstep, one interval at a time.
        slices = list(slice_by_interval(records, interval_seconds))

        def batches(scheme):
            for index, chunk in slices:
                yield KeyedUpdates(
                    index=index,
                    keys=scheme.extract(chunk),
                    values=chunk["bytes"].astype(np.float64),
                    duration=interval_seconds,
                )

        level_reports = [
            OfflineTwoPassDetector(
                schema, self.model, t_fraction=self.t_fraction,
                **self.model_params,
            ).run(batches(scheme))
            for scheme, schema in zip(self._key_schemes, self._schemas)
        ]
        for reports in zip(*level_reports):
            per_level = [
                {alarm.key: alarm.estimated_error for alarm in report.alarms}
                for report in reports
            ]
            yield DrilldownReport(
                interval=reports[0].index,
                roots=build_attribution_forest(self.levels, per_level),
            )


def attribute_key_errors(
    keys: np.ndarray,
    errors: np.ndarray,
    *,
    threshold: float,
    levels: Sequence[int] = (8, 16, 24, 32),
    interval: int = 0,
) -> DrilldownReport:
    """Forensic drill-down over per-key error estimates (no re-detection).

    The retrospective path: the temporal archive's ``diff`` hands back
    per-host error estimates reconstructed from an archived error sketch;
    this aggregates them up the destination-prefix hierarchy (estimated
    errors are linear, so summing host estimates *is* the prefix
    estimate), alarms every level against the same ``threshold`` used by
    the interval report, and builds the attribution forest -- orphan
    surfacing included -- with the exact machinery the live
    :class:`PrefixDrilldown` uses.

    ``keys`` must be 32-bit host keys (the ``dst_ip`` scheme).
    """
    levels = tuple(int(l) for l in levels)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing, got {levels}")
    if any(not 1 <= l <= 32 for l in levels):
        raise ValueError(f"levels must be in [1, 32], got {levels}")
    keys = np.asarray(keys, dtype=np.uint64)
    errors = np.asarray(errors, dtype=np.float64)
    if keys.shape != errors.shape:
        raise ValueError(
            f"keys/errors must match, got {keys.shape} and {errors.shape}"
        )
    per_level: List[Dict[int, float]] = []
    for level in levels:
        mask = _mask(level)
        totals: Dict[int, float] = {}
        for key, err in zip(keys.tolist(), errors.tolist()):
            prefix = key & mask
            totals[prefix] = totals.get(prefix, 0.0) + err
        # Zero-threshold rule matches the detection layer: exact-zero
        # aggregates never alarm even when threshold == 0.
        per_level.append(
            {
                p: e
                for p, e in totals.items()
                if abs(e) >= threshold and e != 0.0
            }
        )
    roots = build_attribution_forest(levels, per_level)
    return DrilldownReport(interval=interval, roots=roots)
