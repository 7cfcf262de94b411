"""Replay-free key recovery benchmark: invertible sketch vs two-pass replay.

Times the per-interval *seal + candidate production + report* stage of
change detection over injected-anomaly traces at the paper's operating
point (H=5, K=65536, T=0.05, 300 s intervals):

* **twopass** (the baseline, reference framing as in
  ``bench_detection``): the paper's offline replay strategy -- collect
  the interval's unique keys (the replay pass), seal the error sketch,
  probe every collected key with the full median estimator.  Exact, but
  the candidate set is the whole per-interval key population, so the
  probe cost scales with the stream's key diversity.  The amortized
  replay (``step_into``, which writes ``Se`` over the observed summary,
  and the prescreen) is timed too and reported as
  ``amortized_twopass_ms_per_interval`` /
  ``amortized_replay_ratio``; its reports are asserted bit-identical to
  the reference before timing is reported.
* **invertible**: the :class:`~repro.sketch.invertible.InvertibleKArySketch`
  strategy -- seal the error sketch (candidate planes MV-merge during the
  forecast COMBINE), walk its ``H x K`` buckets for candidates, probe only
  those.  No replay pass, no key retention; the candidate set is a few
  dozen keys and the walk is O(H * K) regardless of key diversity.

Sketch *building* is excluded from the timed stage for both paths (it is
identical scatter work plus, for the invertible sketch, the vote pass --
reported separately as ``update_cost_ratio``).  Each configuration scores
the invertible path's alarms against the injected ground truth
(:mod:`repro.traffic.anomalies` events) and asserts **every** planted
anomaly is recalled before any timing is reported.

A ``paths`` section compares all four key sources -- twopass, online,
invertible, grouptesting -- on detection quality (event recall, label
precision against injected truth) and summary footprint, at a smaller
width so the group-testing sketch's ``1 + key_bits`` subcounter blowup
stays runnable.

The quick grid is a strict *prefix* of the full grid and every config
seeds its own RNG from the crc32 of its name, so quick CI runs and the
committed full-mode baseline measure identical data for the shared
dot-paths (see ``scripts/bench_compare.py``; the guarded leaves end in
``speedup``).

Writes ``BENCH_recovery.json`` next to this file (or ``--output``).
Not a pytest module -- run directly:

    PYTHONPATH=src python benchmarks/bench_recovery.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
import zlib
from pathlib import Path

import numpy as np

try:
    from benchmarks._util import environment_provenance
except ImportError:  # run directly: sys.path[0] is benchmarks/
    from _util import environment_provenance

from repro.detection import (
    GroupTestingSchema,
    OfflineTwoPassDetector,
    OnlineDetector,
)
from repro.detection.keysource import resolve_key_source
from repro.detection.threshold import build_interval_report
from repro.forecast.model_zoo import make_forecaster
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams import IntervalStream
from repro.streams.records import make_records, sort_by_time
from repro.traffic.anomalies import inject_dos, inject_flash_crowd

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_recovery.json"

INTERVAL = 300.0
DEPTH = 5
WIDTH = 65536
T_FRACTION = 0.05
TOP_N = 20
MODEL = ("ewma", {"alpha": 0.5})


def make_trace(n_records, n_intervals, rng):
    """Background traffic plus planted anomalies; returns (records, events).

    Background is a uniform key population with integral heavy-tailed
    byte counts (real traces carry integral bytes; integral float64 sums
    keep split/merged counters bit-exact).  Anomalies live in the
    reserved 10.0.0.0/8 block, so their pre-anomaly history is zero.
    """
    duration = n_intervals * INTERVAL
    # Key diversity is the paper's setting (sketches exist because the
    # key space is too large to track exactly): one distinct dst IP per
    # ~4 background records keeps ~100k live keys per 300 s interval at
    # the 1M-record operating point, like a backbone trace's flow table.
    population = max(1000, n_records // 4)
    background = make_records(
        timestamps=np.sort(rng.uniform(0.0, duration, n_records)),
        dst_ips=rng.integers(0, population, n_records).astype(np.uint32),
        byte_counts=(rng.pareto(1.3, n_records) * 500 + 40).astype(np.uint64),
    )
    # Two sharp floods and one ramp, staggered across the trace; rates
    # scale with the background so the anomalies stay heavy at any size.
    rate = max(50.0, n_records / duration)
    pieces, events = [background], []
    for inject, t0, t1 in (
        (inject_dos, 0.35, 0.40),
        (inject_flash_crowd, 0.50, 0.65),
        (inject_dos, 0.75, 0.80),
    ):
        if inject is inject_dos:
            kwargs = {
                "records_per_second": rate,
                "victim_ip": 0x0A000000 + 16 + len(events),
            }
        else:
            kwargs = {"peak_records_per_second": rate}
        extra, event = inject(
            rng, start=t0 * duration, end=t1 * duration, **kwargs
        )
        pieces.append(extra)
        events.append(event)
    return sort_by_time(np.concatenate(pieces)), events


def score_events(reports, events):
    """Event recall + label precision against the injected ground truth."""
    alarmed = {}
    for report in reports:
        for alarm in report.alarms:
            alarmed.setdefault(int(alarm.key), set()).add(report.index)
    recalled = 0
    for event in events:
        # Active window plus one interval: the offset edge is a change too.
        lo = int(event.start // INTERVAL)
        hi = int(event.end // INTERVAL) + 1
        hit = any(
            lo <= t <= hi
            for key in event.keys
            for t in alarmed.get(int(key), ())
        )
        recalled += bool(hit)
    injected = {int(key) for event in events for key in event.keys}
    total_alarms = sum(len(report.alarms) for report in reports)
    true_alarms = sum(
        1
        for report in reports
        for alarm in report.alarms
        if int(alarm.key) in injected
    )
    return {
        "events": len(events),
        "events_recalled": recalled,
        "recall": recalled / len(events) if events else 1.0,
        "alarms": total_alarms,
        "alarms_on_injected_keys": true_alarms,
        # Background traffic has genuine statistical changes, so this
        # under-counts true precision; comparable across paths on the
        # same trace, which is what the table is for.
        "injected_precision": true_alarms / total_alarms if total_alarms else 1.0,
    }


def build_observed(schema, batches):
    return [schema.from_items(b.keys, b.values) for b in batches]


def run_twopass(schema, observed, batches):
    """Reference replay: key collection + full-median probe of every key."""
    forecaster = make_forecaster(MODEL[0], **MODEL[1])
    reports = []
    for obs, batch in zip(observed, batches):
        keys = np.unique(batch.keys)  # the replay pass
        step = forecaster.step(obs)
        if step.error is None:
            continue
        reports.append(
            build_interval_report(
                step.error, keys, interval=batch.index,
                t_fraction=T_FRACTION, top_n=TOP_N, schema=schema,
                prescreen=False,
            )
        )
    return reports


def run_twopass_amortized(schema, observed, batches):
    """Amortized replay: step_into (consumes ``observed``), prescreen."""
    forecaster = make_forecaster(MODEL[0], **MODEL[1])
    reports = []
    for obs, batch in zip(observed, batches):
        keys = np.unique(batch.keys)  # the replay pass
        error = forecaster.step_into(obs)
        if error is None:
            continue
        reports.append(
            build_interval_report(
                error, keys, interval=batch.index,
                t_fraction=T_FRACTION, top_n=TOP_N, schema=schema,
            )
        )
    return reports


def run_invertible(schema, observed, batches, candidate_counts=None):
    """Recovery path: walk the sealed error sketch's candidate buckets.

    ``step_into`` consumes ``observed``.
    """
    forecaster = make_forecaster(MODEL[0], **MODEL[1])
    reports = []
    for obs, batch in zip(observed, batches):
        error = forecaster.step_into(obs)
        if error is None:
            continue
        keys = resolve_key_source(
            "invertible", error, t_fraction=T_FRACTION
        )
        if candidate_counts is not None:
            candidate_counts.append(len(keys))
        reports.append(
            build_interval_report(
                error, keys, interval=batch.index,
                t_fraction=T_FRACTION, top_n=TOP_N, schema=schema,
            )
        )
    return reports


def time_best(runner, repeats, consumed=None):
    """Best of ``repeats`` calls of ``runner()``, or of ``runner(copies)``
    when given the summaries it ``consumed``: each repeat gets fresh
    copies, made before its timer starts."""
    best, result = float("inf"), None
    for _ in range(repeats):
        args = () if consumed is None else ([s.copy() for s in consumed],)
        t0 = time.perf_counter()
        result = runner(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


def update_cost_ratio(plain, inv_schema, batches, repeats):
    """UPDATE cost of vote maintenance: invertible vs plain ingest."""
    batch = max(batches, key=lambda b: len(b.keys))

    def ingest(schema):
        sketch = schema.empty()
        sketch.update_batch(batch.keys, batch.values)
        return sketch

    _, plain_s = time_best(lambda: ingest(plain), repeats)
    _, inv_s = time_best(lambda: ingest(inv_schema), repeats)
    return {
        "records": int(len(batch.keys)),
        "plain_seconds": plain_s,
        "invertible_seconds": inv_s,
        "update_cost_ratio": inv_s / plain_s,
    }


def bench_config(name, n_records, n_intervals, repeats):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    records, events = make_trace(n_records, n_intervals, rng)
    batches = list(IntervalStream(records, interval_seconds=INTERVAL))

    plain = KArySchema(depth=DEPTH, width=WIDTH, seed=11)
    inv_schema = InvertibleKArySchema(depth=DEPTH, width=WIDTH, seed=11)
    observed_plain = build_observed(plain, batches)
    observed_inv = build_observed(inv_schema, batches)

    two_reports, two_s = time_best(
        lambda: run_twopass(plain, observed_plain, batches), repeats
    )
    amo_reports, amo_s = time_best(
        lambda observed: run_twopass_amortized(plain, observed, batches),
        repeats,
        consumed=observed_plain,
    )
    for a, b in zip(amo_reports, two_reports):
        assert a.index == b.index and a.threshold == b.threshold
        assert [(x.key, x.estimated_error) for x in a.alarms] == [
            (x.key, x.estimated_error) for x in b.alarms
        ]
    candidate_counts = []
    inv_reports, inv_s = time_best(
        lambda observed: run_invertible(
            inv_schema, observed, batches, candidate_counts
        ),
        repeats,
        consumed=observed_inv,
    )

    quality = score_events(inv_reports, events)
    assert quality["recall"] >= 0.95, (
        f"{name}: invertible recovery missed injected anomalies "
        f"(recall={quality['recall']:.2f})"
    )

    sealed = len(two_reports)
    candidates_two = sum(len(np.unique(b.keys)) for b in batches[1:])
    candidates_inv = sum(candidate_counts[:sealed])
    return {
        "n_records": int(len(records)),
        "n_intervals": n_intervals,
        "depth": DEPTH,
        "width": WIDTH,
        "sealed_intervals": sealed,
        "twopass_seconds": two_s,
        "amortized_twopass_seconds": amo_s,
        "invertible_seconds": inv_s,
        "twopass_ms_per_interval": 1e3 * two_s / sealed,
        "amortized_twopass_ms_per_interval": 1e3 * amo_s / sealed,
        "invertible_ms_per_interval": 1e3 * inv_s / sealed,
        "speedup": two_s / inv_s,
        "amortized_replay_ratio": amo_s / inv_s,
        "twopass_candidates_per_interval": candidates_two / sealed,
        "invertible_candidates_per_interval": candidates_inv / sealed,
        "invertible": quality,
        "update": update_cost_ratio(plain, inv_schema, batches, repeats),
    }


def bench_paths(repeats, rng):
    """All four key sources on one injected trace: quality and footprint.

    Smaller width than the headline configs so the group-testing
    sketch's ``(1 + key_bits)``-per-bucket layout stays runnable; the
    space column is the point of including it.
    """
    width = 8192
    records, events = make_trace(200_000, 16, rng)
    batches = list(IntervalStream(records, interval_seconds=INTERVAL))

    def detector_for(source):
        if source == "online":
            return OnlineDetector(
                KArySchema(depth=DEPTH, width=width, seed=11),
                MODEL[0], t_fraction=T_FRACTION, **MODEL[1],
            )
        schema = {
            "twopass": KArySchema(depth=DEPTH, width=width, seed=11),
            "invertible": InvertibleKArySchema(
                depth=DEPTH, width=width, seed=11
            ),
            "grouptesting": GroupTestingSchema(
                depth=DEPTH, width=width, seed=11
            ),
        }[source]
        return OfflineTwoPassDetector(
            schema, MODEL[0], t_fraction=T_FRACTION, key_source=source,
            **MODEL[1],
        )

    out = {}
    for source in ("twopass", "online", "invertible", "grouptesting"):
        def run():
            detector = detector_for(source)
            return (detector.run if source == "online" else detector.detect)(
                batches
            )

        reports, seconds = time_best(lambda: list(run()), max(1, repeats - 1))
        quality = score_events(reports, events)
        table_bytes = int(detector_for(source).schema.empty().table.nbytes)
        out[source] = {
            **quality,
            "detect_seconds": seconds,
            "table_bytes": table_bytes,
            "bytes_per_bucket": table_bytes / (DEPTH * width),
        }
    return {"width": width, "n_records": int(len(records)), "sources": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small grid / few repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration (default 3; 2 quick)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 3)

    # Quick grid is a strict prefix of the full grid (bench_compare needs
    # shared dot-paths measuring identical work; per-config crc32 seeds
    # make the data independent of grid order).
    grid = [("r250k", 250_000, 8)]
    if not args.quick:
        grid += [("r1m", 1_000_000, 8)]

    configs = {}
    for name, n_records, n_intervals in grid:
        configs[name] = bench_config(name, n_records, n_intervals, repeats)

    paths = bench_paths(repeats, np.random.default_rng(2003))

    report = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "environment": environment_provenance(),
        "quick": bool(args.quick),
        "repeats": repeats,
        "model": MODEL[0],
        "t_fraction": T_FRACTION,
        "top_n": TOP_N,
        "interval_seconds": INTERVAL,
        "recovery": {"configs": configs},
        "paths": paths,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"cpu_count: {report['cpu_count']}  model: {MODEL[0]}  "
          f"H={DEPTH}  K={WIDTH}  T={T_FRACTION}")
    print(f"{'config':>8s} {'records':>9s} {'2pass ms/iv':>12s} "
          f"{'amort ms/iv':>12s} {'inv ms/iv':>10s} {'speedup':>8s} "
          f"{'recall':>7s} {'upd cost':>9s}")
    for name, c in configs.items():
        print(f"{name:>8s} {c['n_records']:>9d} "
              f"{c['twopass_ms_per_interval']:12.3f} "
              f"{c['amortized_twopass_ms_per_interval']:12.3f} "
              f"{c['invertible_ms_per_interval']:10.3f} "
              f"{c['speedup']:7.2f}x "
              f"{c['invertible']['recall']:6.0%} "
              f"{c['update']['update_cost_ratio']:8.2f}x")
    print(f"{'path':>14s} {'recall':>7s} {'inj prec':>9s} {'alarms':>7s} "
          f"{'detect s':>9s} {'bytes/bucket':>13s}")
    for source, p in paths["sources"].items():
        print(f"{source:>14s} {p['recall']:6.0%} "
              f"{p['injected_precision']:8.1%} {p['alarms']:7d} "
              f"{p['detect_seconds']:9.3f} {p['bytes_per_bucket']:13.1f}")
    print(f"wrote {args.output}")
    return report


if __name__ == "__main__":
    main()
