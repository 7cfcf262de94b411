"""One workload, start to finish, in its own process.

``run.py`` starts this script once per workload.  In order it

1. measures set-up: the median wall time of fresh interpreters that
   import ``repro``, load the compiled kernels from the warm on-disk cache,
   and build the workload's schema, session and archive;
2. runs one untimed warm-up pass under ``tracemalloc`` (its peak is the
   memory metric) and checks its reports, and the first query answers,
   against the reference in :mod:`oracle`;
3. runs the timed passes, each checked against the warm-up pass: whole
   passes until ``--seconds`` are spent (at least three), or ``--passes``;
4. with ``--trace 1``, runs one traced pass (:mod:`tracer`) for the
   per-layer metrics.

The result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from statistics import median

import numpy as np

E2E_DIR = Path(__file__).resolve().parent
sys.path.append(str(E2E_DIR.parent))  # for benchmarks/_util.py

from _util import environment_provenance  # noqa: E402
from repro.hashing import KERNEL_NAMES, kernel_call_counts, kernel_seconds  # noqa: E402

import oracle  # noqa: E402
from tracer import QUERY_SPANS, SPANS, Tracer, instrument  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    make_feed,
    make_queries,
    make_schema,
    make_trace,
    query_keys,
    run_pass,
)

SETUP_RUNS = 9
MIN_PASSES = 3
ORACLE_QUERIES = 50


class Tally:
    """Seals and queries checked, and how many were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, got, want) -> None:
        self.attempted += max(len(got), len(want))
        self.failed += oracle.count_mismatches(got, want)


def measure_setup(name: str) -> float:
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(E2E_DIR / "workloads.py"), name],
            check=True, timeout=120,
        )
        samples.append(time.perf_counter() - t0)
    return median(samples)


def percentile_ms(samples, q) -> float:
    return float(np.percentile(samples, q)) * 1e3


def item_medians(runs) -> np.ndarray:
    """Each seal's or query's median duration over the timed passes.

    Every pass seals the same intervals and asks the same queries, so the
    i-th sample of each pass times the same work.  The median over passes
    drops the host's one-off stalls, which otherwise make up most of a
    pooled tail, and keeps what the work itself costs.
    """
    return np.median(np.asarray(runs), axis=0)


def layer_metrics(tracer, result, kernels_before, timed_wall) -> dict:
    self_s, calls = tracer.self_times()
    out = {}
    for name in SPANS + QUERY_SPANS:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    out["sketch.update.keys"] = tracer.counts.get("sketch.update.keys", 0)
    detection = result.stats["detection"]
    out["detection.candidates"] = detection["candidates"]
    out["detection.median_evaluated"] = detection["median_evaluated"]
    out["detection.prescreen_ratio"] = (
        detection["median_evaluated"] / detection["candidates"]
        if detection["candidates"] else 0.0
    )
    archive = result.archive_stats or {}
    out["archive.bytes"] = archive.get("bytes", 0)
    out["archive.compactions"] = (
        archive.get("time_compactions", 0) + archive.get("item_compactions", 0)
    )
    seconds0, calls0 = kernels_before
    seconds1, calls1 = kernel_seconds(), kernel_call_counts()
    for kernel in KERNEL_NAMES:
        out[f"hashing.kernel.{kernel}.s"] = seconds1.get(kernel, 0.0) - seconds0.get(kernel, 0.0)
        out[f"hashing.kernel.{kernel}.calls"] = calls1.get(kernel, 0) - calls0.get(kernel, 0)
    out["trace.unattributed_s"] = result.wall_s - sum(self_s.values())
    out["trace.overhead_frac"] = result.wall_s / timed_wall - 1.0
    return out


def run_workload(name, seed, seconds, passes, trace, trace_dir, tally) -> dict:
    w = WORKLOADS[name]
    schema = make_schema(w)  # loads the kernels, compiling them on first use
    e2e, layer = {"setup_s": measure_setup(name)}, {}

    records = make_trace(w.trace, seed)
    feed = make_feed(w, records)
    keys = query_keys(records) if w.archive else None

    tracemalloc.start()
    warm = run_pass(w, schema, feed)
    queries = make_queries(warm.archive, seed) if w.archive else []
    warm.ask(w, queries, keys)
    e2e["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    warm.archive = None
    tally.check(warm.reports, oracle.stream_reports(w, schema, records))
    tally.check(
        warm.answers[:ORACLE_QUERIES],
        oracle.query_answers(w, schema, records, warm.snapped[:ORACLE_QUERIES], keys),
    )
    # What the benchmark holds from here on stays out of the collector's
    # way, so timed passes pay only for the garbage the system makes.
    gc.collect()
    gc.freeze()

    def checked_pass():
        gc.collect()
        result = run_pass(w, schema, feed, queries, keys)
        result.archive = None
        tally.check(result.reports, warm.reports)
        tally.check(result.answers, warm.answers)
        return result

    ingest, wall, seal_runs, query_runs = [], [], [], []
    while (len(wall) < passes) if passes else (len(wall) < MIN_PASSES or sum(wall) < seconds):
        result = checked_pass()
        ingest.append(result.ingest_s)
        wall.append(result.wall_s)
        seal_runs.append(result.seal_s)
        query_runs.append(result.query_s)
    # The answer is what the workload's user waits for: the retrospective
    # diff on the archive, the sealing call on a stream.
    answer_runs = query_runs if w.archive else seal_runs
    answer = item_medians(answer_runs)
    e2e["records_per_s"] = len(records) / median(ingest)
    e2e["answer_p50_ms"] = percentile_ms(answer, 50)
    e2e["answer_p95_ms"] = percentile_ms(answer, 95)
    extra = {
        "records": len(records), "passes": len(wall),
        "answers_per_pass": len(answer),
        "alarms_per_pass": sum(r.alarm_count for r in warm.reports),
        "answer_pooled_p99_ms": percentile_ms(np.concatenate(answer_runs), 99),
    }
    if w.archive:
        seal = item_medians(seal_runs)
        extra.update(seal_p50_ms=percentile_ms(seal, 50), seal_p95_ms=percentile_ms(seal, 95))

    if trace:
        tracer = Tracer()
        kernels_before = kernel_seconds(), kernel_call_counts()
        with instrument(tracer):
            result = checked_pass()
        layer = layer_metrics(tracer, result, kernels_before, median(wall))
        if trace_dir is not None:
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
            tracer.write_chrome_trace(Path(trace_dir) / f"{name}.trace.json")

    return {"end_to_end": e2e, "per_layer": layer, "extra": extra}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    tally = Tally()
    out = {"workload": args.workload, "seed": args.seed}
    try:
        out.update(
            run_workload(
                args.workload, args.seed, args.seconds, args.passes,
                args.trace, args.trace_dir, tally,
            )
        )
    except Exception as exc:  # counted as a failed operation, then reported
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        out["error"] = repr(exc)
    out.update(
        attempted=tally.attempted, failed=tally.failed,
        environment=environment_provenance(),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
