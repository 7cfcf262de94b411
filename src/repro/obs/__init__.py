"""Observability: metrics, stage timers and trace events for the pipeline.

The paper's Section 6 deployment story -- near real-time change
detection on live traffic -- presumes an operator who can *see* the
monitor: interval lag, seal latency, alarm rates, prescreen
effectiveness.  This package is that layer, dependency-free:

* :mod:`repro.obs.registry` -- :class:`MetricsRegistry` holding
  counters, gauges and fixed-bucket histograms with labels;
* :mod:`repro.obs.recorder` -- the :class:`PipelineRecorder` every
  pipeline component reports through (stage timers, lazy metric
  creation, a bounded trace-event ring buffer), and the allocation-free
  :class:`NullRecorder` default that keeps the disabled path exactly as
  fast as before the obs layer existed;
* :mod:`repro.obs.export` -- Prometheus text and JSON exporters.

Usage::

    from repro.obs import PipelineRecorder
    from repro.detection import StreamingSession

    recorder = PipelineRecorder()
    session = StreamingSession(schema, "ewma", alpha=0.4, recorder=recorder)
    ...  # ingest / flush as usual -- reports are bit-identical
    recorder.write("metrics.prom")          # Prometheus text
    recorder.events("interval_sealed")      # structured trace

Recorders observe execution; they are never part of the detection
result.  Checkpoints do not carry them (a restored session starts with
fresh metrics), and every report is bit-identical with observability on
or off.
"""

from repro.obs.export import to_json_dict, to_prometheus_text
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    PipelineRecorder,
    STAGE_HISTOGRAM,
)
from repro.obs.registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "PipelineRecorder",
    "STAGE_HISTOGRAM",
    "to_json_dict",
    "to_prometheus_text",
]
