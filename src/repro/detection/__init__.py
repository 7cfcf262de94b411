"""Change detection: the paper's third module, plus key-recovery variants.

Built from small pieces:

* :mod:`~repro.detection.pipeline` -- ``summarize_stream``, one observed
  summary per interval, shared by sketch and per-flow paths (only the
  schema differs).
* :mod:`~repro.detection.threshold` -- the alarm rule
  ``|error(a)| >= T * sqrt(ESTIMATEF2(Se(t)))`` and the top-N ranking,
  both written once in ``build_interval_report``; ``narrow_report``
  re-reads a report at a higher ``T``.
* :mod:`~repro.detection.topn` -- top-N ranking of keys by absolute
  forecast error on its own, and the paper's top-N similarity metric.
* :mod:`~repro.detection.twopass` -- the offline two-pass detector used in
  all the paper's experiments (pass 1 builds sketches, pass 2 replays the
  interval's keys against the error sketch).
* :mod:`~repro.detection.online` -- the online variant that detects using
  keys arriving *after* the error sketch is built, optionally sampled; it
  trades a bounded miss-rate for single-pass operation.
* :mod:`~repro.detection.perflow` -- exact per-flow detection over a dense
  key index (the accuracy oracle), reported by the same rule.
* :mod:`~repro.detection.grouptesting` -- combinatorial group testing
  sketch that recovers changed keys directly from (modified) sketch state,
  with no key stream at all (the paper's Section 3.3 fourth alternative).
* :mod:`~repro.detection.keysource` -- names those candidate-key
  strategies (``twopass``, ``online``, ``invertible``, ``grouptesting``)
  and resolves one per sealed interval, so detectors and sessions share
  a single function for "where do the keys come from".
* :mod:`~repro.detection.session` -- the streaming session and
  :class:`~repro.detection.session.IntervalSealer`, the one seal step
  (forecast, candidate keys, alarm rule) every driver shares.
* :mod:`~repro.detection.checkpoint` -- session checkpoint/restore: the
  full pipeline state (forecaster internals, open-interval accumulation,
  cursors) round-trips through one ``KCP1`` container and resumes
  bit-identically.
"""

from repro.detection.adaptive import AdaptiveDetector
from repro.detection.checkpoint import (
    checkpoint_session,
    load_checkpoint,
    restore_session,
    save_checkpoint,
)
from repro.detection.drilldown import (
    DrilldownNode,
    DrilldownReport,
    PrefixDrilldown,
    attribute_key_errors,
    build_attribution_forest,
    format_prefix,
)
from repro.detection.explain import AlarmExplanation, explain_alarm
from repro.detection.grouptesting import GroupTestingSchema, GroupTestingSketch
from repro.detection.heavyhitters import HeavyHitterTracker, heavy_hitters
from repro.detection.keysource import (
    KEY_SOURCES,
    collect_replay_keys,
    resolve_key_source,
)
from repro.detection.online import OnlineDetector
from repro.detection.perflow import PerFlowResult, run_per_flow
from repro.detection.session import IntervalSealer, StreamingSession
from repro.detection.pipeline import summarize_stream
from repro.detection.threshold import (
    Alarm,
    alarm_threshold,
    alarms_for_interval,
    build_interval_report,
    narrow_report,
)
from repro.detection.topn import top_n_keys
from repro.detection.twopass import IntervalDetection, OfflineTwoPassDetector

__all__ = [
    "AdaptiveDetector",
    "Alarm",
    "AlarmExplanation",
    "DrilldownNode",
    "explain_alarm",
    "DrilldownReport",
    "GroupTestingSchema",
    "PrefixDrilldown",
    "attribute_key_errors",
    "build_attribution_forest",
    "format_prefix",
    "HeavyHitterTracker",
    "heavy_hitters",
    "GroupTestingSketch",
    "IntervalDetection",
    "IntervalSealer",
    "KEY_SOURCES",
    "OfflineTwoPassDetector",
    "OnlineDetector",
    "PerFlowResult",
    "StreamingSession",
    "alarm_threshold",
    "alarms_for_interval",
    "build_interval_report",
    "checkpoint_session",
    "collect_replay_keys",
    "load_checkpoint",
    "narrow_report",
    "restore_session",
    "save_checkpoint",
    "resolve_key_source",
    "run_per_flow",
    "summarize_stream",
    "top_n_keys",
]
