"""Streaming ingestion benchmark: sharded sessions vs the serial baseline.

Feeds an identical synthetic flow trace, in identical chunks, to:

* the plain :class:`~repro.detection.session.StreamingSession`
  (the single-worker baseline), and
* :class:`~repro.detection.sharded.ShardedStreamingSession` with
  ``n_workers`` in {1, 2, 4, 8},

and reports records/sec and sealed-intervals/sec for each.  Every sharded
run is also checked alarm-for-alarm against the baseline reports -- the
speedup is only meaningful because the output is bit-identical (COMBINE
linearity with integral update values).

What the comparison measures: both sessions buffer each chunk's columns
and fold the open interval into its sketch in batches -- the serial
session with one UPDATE plus one key dedup per interval (or per 65,536
buffered records), the sharded engine with one UPDATE per shard at
interval seal, then COMBINE.  So ``speedup`` isolates what sharding adds
on top of batching: on multi-core hosts the thread backend can run shard
UPDATEs in parallel (the stacked-hash kernels release the GIL), on a
single core it only adds routing and COMBINE.  ``cpu_count`` is recorded
in the report so the two can be told apart.

Writes ``BENCH_streaming.json`` next to this file (or ``--output``).
Not a pytest module -- run directly:

    PYTHONPATH=src python benchmarks/bench_streaming.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.detection import ShardedStreamingSession, StreamingSession
from repro.sketch import KArySchema
from repro.streams import make_records

try:
    from benchmarks._util import environment_provenance
except ImportError:  # run directly: sys.path[0] is benchmarks/
    from _util import environment_provenance

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_streaming.json"

INTERVAL_SECONDS = 300.0
SESSION_KWARGS = dict(
    interval_seconds=INTERVAL_SECONDS, t_fraction=0.1, top_n=5, alpha=0.5
)


def make_trace(n_records, n_intervals, population, rng):
    """Synthetic flow trace: integral byte counts, heavy-tailed keys."""
    duration = n_intervals * INTERVAL_SECONDS
    return make_records(
        timestamps=np.sort(rng.uniform(0, duration, n_records)),
        dst_ips=rng.integers(0, population, n_records).astype(np.uint32),
        byte_counts=(rng.pareto(1.3, n_records) * 500 + 40).astype(np.uint64),
    )


def run_session(session, records, chunk_records):
    """Ingest the trace in fixed-size chunks; return (reports, seconds)."""
    reports = []
    t0 = time.perf_counter()
    for start in range(0, len(records), chunk_records):
        reports.extend(session.ingest(records[start : start + chunk_records]))
    reports.extend(session.flush())
    drain = getattr(session, "drain", None)
    if drain is not None:
        reports.extend(drain())
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def assert_reports_match(got, expected):
    assert len(got) == len(expected), (len(got), len(expected))
    for g, e in zip(got, expected):
        assert g.index == e.index
        assert g.error_l2 == e.error_l2
        assert [(a.key, a.estimated_error) for a in g.alarms] == [
            (a.key, a.estimated_error) for a in e.alarms
        ]


def bench(schema, records, chunk_records, worker_counts, backend, repeats):
    n_records = len(records)

    def time_best(make_session):
        best, reports = float("inf"), None
        for _ in range(repeats):
            session = make_session()
            try:
                got, elapsed = run_session(session, records, chunk_records)
            finally:
                close = getattr(session, "close", None)
                if close is not None:
                    close()
            best = min(best, elapsed)
            reports = got
        return reports, best

    baseline_reports, baseline_s = time_best(
        lambda: StreamingSession(schema, "ewma", **SESSION_KWARGS)
    )
    intervals = baseline_reports[-1].index + 1 if baseline_reports else 0

    runs = {
        "baseline": {
            "seconds": baseline_s,
            "records_per_sec": n_records / baseline_s,
            "sealed_intervals_per_sec": intervals / baseline_s,
            "speedup": 1.0,
        }
    }
    for n_workers in worker_counts:
        reports, seconds = time_best(
            lambda: ShardedStreamingSession(
                schema, "ewma", n_workers=n_workers, backend=backend,
                **SESSION_KWARGS,
            )
        )
        assert_reports_match(reports, baseline_reports)
        runs[f"sharded_{n_workers}"] = {
            "n_workers": n_workers,
            "seconds": seconds,
            "records_per_sec": n_records / seconds,
            "sealed_intervals_per_sec": intervals / seconds,
            "speedup": baseline_s / seconds,
        }
    return {
        "n_records": n_records,
        "n_intervals": intervals,
        "chunk_records": chunk_records,
        "backend": backend,
        "reports_identical_to_baseline": True,
        "runs": runs,
    }


def bench_pipelined(schema, records, chunk_records, repeats):
    """Pipelined vs blocking sealing, serial and sharded sessions.

    The pipelined session overlaps interval ``t``'s seal+detect with
    interval ``t+1``'s UPDATEs; on a multi-core host that hides most of
    the seal latency, on one core it only hides scheduler slack.  The
    blocking/pipelined ratio is reported as ``pipeline_ratio``
    (deliberately not a ``*speedup`` leaf -- it is a property of the
    host's core count, so ``scripts/bench_compare.py`` must not flag it
    across machines).  Reports are asserted bit-identical first.
    """
    n_records = len(records)

    def time_best(make_session):
        best, reports = float("inf"), None
        for _ in range(repeats):
            session = make_session()
            try:
                got, elapsed = run_session(session, records, chunk_records)
            finally:
                close = getattr(session, "close", None)
                if close is not None:
                    close()
            best = min(best, elapsed)
            reports = got
        return reports, best

    cells = {}
    baseline_reports = None
    for name, make_session in (
        ("blocking", lambda: StreamingSession(
            schema, "ewma", **SESSION_KWARGS)),
        ("pipelined", lambda: StreamingSession(
            schema, "ewma", pipeline=True, **SESSION_KWARGS)),
        ("sharded_blocking", lambda: ShardedStreamingSession(
            schema, "ewma", n_workers=2, backend="thread",
            **SESSION_KWARGS)),
        ("sharded_pipelined", lambda: ShardedStreamingSession(
            schema, "ewma", n_workers=2, backend="thread", pipeline=True,
            **SESSION_KWARGS)),
    ):
        reports, seconds = time_best(make_session)
        if baseline_reports is None:
            baseline_reports = reports
        else:
            assert_reports_match(reports, baseline_reports)
        cells[name] = {
            "seconds": seconds,
            "records_per_sec": n_records / seconds,
        }
    for pipelined, blocking in (
        ("pipelined", "blocking"),
        ("sharded_pipelined", "sharded_blocking"),
    ):
        cells[pipelined]["pipeline_ratio"] = (
            cells[blocking]["seconds"] / cells[pipelined]["seconds"]
        )
    return {
        "n_records": n_records,
        "chunk_records": chunk_records,
        "reports_identical": True,
        "cells": cells,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small trace / few repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration (default 5; 2 quick)")
    parser.add_argument("--backend", default="thread",
                        choices=("serial", "thread", "process"))
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 5)
    rng = np.random.default_rng(2003)
    # Chunks are collector-batch sized: a NetFlow v5 export packet carries
    # at most 30 flow records, so real feeds arrive in O(tens)-record
    # batches -- the regime where per-chunk sketch work would dominate
    # ingestion without batching.
    if args.quick:
        n_records, n_intervals, chunk_records = 200_000, 12, 64
        worker_counts = (1, 2, 4)
    else:
        n_records, n_intervals, chunk_records = 1_000_000, 24, 64
        worker_counts = (1, 2, 4, 8)

    schema = KArySchema(depth=5, width=8192, seed=5)
    records = make_trace(n_records, n_intervals, 5_000, rng)

    report = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "environment": environment_provenance(),
        "quick": bool(args.quick),
        "repeats": repeats,
        "streaming": bench(schema, records, chunk_records, worker_counts,
                           args.backend, repeats),
        "pipelined": bench_pipelined(schema, records, chunk_records, repeats),
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    streaming = report["streaming"]
    print(f"cpu_count: {report['cpu_count']}  backend: {streaming['backend']}  "
          f"trace: {streaming['n_records']:,} records / "
          f"{streaming['n_intervals']} intervals")
    for name, run in streaming["runs"].items():
        label = ("StreamingSession" if name == "baseline"
                 else f"sharded n_workers={run['n_workers']}")
        print(f"{label:28s} {run['records_per_sec']:>12,.0f} rec/s  "
              f"{run['sealed_intervals_per_sec']:7.2f} intervals/s  "
              f"{run['speedup']:.2f}x")
    for name, cell in report["pipelined"]["cells"].items():
        ratio = cell.get("pipeline_ratio")
        suffix = f"  {ratio:.2f}x vs blocking" if ratio is not None else ""
        print(f"{name:28s} {cell['records_per_sec']:>12,.0f} rec/s{suffix}")
    print(f"wrote {args.output}")
    return report


if __name__ == "__main__":
    main()
