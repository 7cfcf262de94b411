"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns named metrics; each metric owns one time
series per distinct label-value tuple.  The design goals, in order:

* **dependency-free** -- plain dicts and floats, no client library;
* **cheap when used** -- incrementing a counter is one dict lookup plus
  a float add (the pipeline only touches metrics at interval-seal
  granularity, never per record);
* **exportable** -- :meth:`MetricsRegistry.collect` yields a stable,
  sorted view that the Prometheus/JSON exporters in
  :mod:`repro.obs.export` render without reaching into internals.

Naming scheme (see DESIGN.md §11): ``repro_<subsystem>_<what>[_unit]``,
with ``_total`` suffix for counters and ``_seconds`` for latency
histograms; variable dimensions (forecast model, stage, distributed
site) are labels, never baked into names.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram buckets for stage latencies, in seconds.  Spans
#: sub-millisecond seals (small sketches) to multi-second degraded
#: seals; the +Inf bucket is implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_values(
    metric_name: str, label_names: Tuple[str, ...], labels: dict
) -> Tuple[str, ...]:
    """Validate and order one sample's label values against the metric."""
    if len(labels) != len(label_names) or any(
        name not in labels for name in label_names
    ):
        raise ValueError(
            f"metric {metric_name!r} takes labels {label_names}, "
            f"got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Metric:
    """Shared plumbing: name, help text, label schema, per-series store."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> None:
        if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError(f"duplicate label names in {self.label_names}")
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> Tuple[str, ...]:
        return _label_values(self.name, self.label_names, labels)

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Sorted ``(label_values, state)`` pairs for the exporters."""
        return sorted(self._series.items())


class Counter(_Metric):
    """A monotonically nondecreasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the series' count."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def set_to(self, value: float, **labels) -> None:
        """Synchronize with an external monotonic tally (e.g. a cache's
        ``hits`` attribute).  Values below the current count are ignored
        -- the series keeps its high-water mark -- so several sources
        syncing one series can never drive a counter backwards."""
        key = self._key(labels)
        if value > self._series.get(key, 0.0):
            self._series[key] = float(value)
        else:
            self._series.setdefault(key, 0.0)

    def value(self, **labels) -> float:
        """Current count for one label tuple (0 before any increment)."""
        return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Metric):
    """A value that can go up and down (sizes, watermarks, rates)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # + the implicit +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket histogram (cumulative export, Prometheus-style).

    Buckets are upper bounds, strictly increasing; every observation also
    lands in the implicit ``+Inf`` bucket, so the exporter's cumulative
    counts and the ``_count`` series agree by construction.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValueError("finite bucket bounds only (+Inf is implicit)")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1

    def touch(self, **labels) -> None:
        """Create an all-zero series for one label tuple (idempotent).

        Histogram series are otherwise lazy (created on first observe),
        which makes "never fired" indistinguishable from "not
        instrumented" in a scrape.  Preregistration calls this so e.g.
        ``repro_stage_seconds{stage="recover"}`` exports at zero even
        when the key source never runs a recovery walk.
        """
        key = self._key(labels)
        if key not in self._series:
            self._series[key] = _HistogramSeries(len(self.buckets))

    def snapshot(self, **labels) -> dict:
        """Per-bucket (non-cumulative) counts plus sum/count."""
        series = self._series.get(self._key(labels))
        if series is None:
            return {"buckets": [0] * (len(self.buckets) + 1), "sum": 0.0,
                    "count": 0}
        return {
            "buckets": list(series.counts),
            "sum": series.sum,
            "count": series.count,
        }


class MetricsRegistry:
    """A named collection of metrics with idempotent registration.

    Registering the same name again with the same kind and label schema
    returns the existing metric (so independent pipeline stages can
    declare what they use without coordinating); a kind or label-schema
    mismatch raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        extra = {} if buckets is None else {"buckets": buckets}
        metric = self._register(Histogram, name, help, labels, **extra)
        if buckets is not None and tuple(float(b) for b in buckets) != metric.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.buckets}"
            )
        return metric

    def _register(self, cls, name, help, labels, **extra):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names}"
                )
            return existing
        metric = cls(name, help, labels, **extra)
        self._metrics[name] = metric
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric, or None."""
        return self._metrics.get(name)

    def collect(self) -> Iterator[_Metric]:
        """Metrics in name order (the exporters' iteration contract)."""
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics
