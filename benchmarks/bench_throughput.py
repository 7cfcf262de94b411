"""Throughput benchmark for the batched sketch and grid-search paths.

Measures, against a faithful reconstruction of the per-row or
per-object reference paths:

* **UPDATE** -- batched sketch updates (keys/sec), fused hash+scatter
  kernel (tabulation and polynomial families) vs the per-row
  hash/``np.add.at`` loop;
* **ESTIMATE** -- batched point queries (keys/sec), fused
  hash+gather+median kernel vs per-row gather + ``np.median``;
* **columnar** -- end-to-end session ingest via zero-copy
  :class:`KeyedUpdates` views vs record chunks (parity check: same
  throughput, reports bit-identical, zero intermediate copies);
* **grid search** -- ``search_model`` wall-clock (candidates scored
  against the stacked ``(T, H, K)`` tables) vs the per-object search
  (``grid_search`` over ``estimated_total_energy``), asserting both
  return the identical winner and energy.

Writes ``BENCH_throughput.json`` next to this file (or ``--output``).
Not a pytest module -- run directly:

    PYTHONPATH=src python benchmarks/bench_throughput.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.forecast.model_zoo import make_forecaster
from repro.gridsearch.grid import grid_search, search_model
from repro.gridsearch.objective import estimated_total_energy
from repro.gridsearch.search_spaces import build_search_spaces
from repro.hashing._kernels import get_kernels
from repro.sketch import KArySchema, KArySketch

try:
    from benchmarks._util import environment_provenance
except ImportError:  # run directly: sys.path[0] is benchmarks/
    from _util import environment_provenance

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_throughput.json"


def _best_of(fn, repeats):
    """Minimum wall-clock of ``repeats`` runs (robust on noisy machines)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_update(depth, width, n_keys, repeats, rng, family="tabulation"):
    schema = KArySchema(depth=depth, width=width, seed=5, family=family)
    keys = rng.integers(0, 2**32, size=n_keys, dtype=np.uint64)
    values = rng.normal(100.0, 30.0, size=n_keys)
    hashes = schema.hashes

    ref_table = np.zeros((depth, width), dtype=np.float64)

    def reference():
        ref_table[:] = 0.0
        for i, h in enumerate(hashes):
            np.add.at(ref_table[i], h.hash_array(keys), values)

    sketch = KArySketch(schema)

    def engine():
        sketch.reset()
        sketch.update_batch(keys, values)

    # Interleave so thermal/cache drift hits both paths equally.
    t_ref = t_new = float("inf")
    for _ in range(repeats):
        t_ref = min(t_ref, _best_of(reference, 1))
        t_new = min(t_new, _best_of(engine, 1))
    assert np.array_equal(np.asarray(sketch.table), ref_table)
    return {
        "depth": depth,
        "width": width,
        "n_keys": n_keys,
        "family": family,
        "reference_seconds": t_ref,
        "engine_seconds": t_new,
        "reference_keys_per_sec": n_keys / t_ref,
        "engine_keys_per_sec": n_keys / t_new,
        "speedup": t_ref / t_new,
    }


def bench_columnar_ingest(n_records, repeats, rng):
    """End-to-end session ingest: record chunks vs zero-copy columnar blocks.

    Reports both paths' keys/sec and their ratio (``parity_ratio``,
    deliberately *not* a ``speedup`` leaf: session ingest is dominated by
    interval accumulation and sealing, so the columnar win is copies
    avoided -- same throughput, zero intermediate allocations -- not
    wall-clock).  Reports from the two paths are asserted bit-identical
    first.
    """
    from repro.detection import StreamingSession
    from repro.streams import iter_interval_columns, make_records

    records = make_records(
        timestamps=np.sort(rng.uniform(0, 6000, n_records)),
        dst_ips=rng.integers(0, 50_000, n_records).astype(np.uint32),
        byte_counts=rng.pareto(1.3, n_records) * 500 + 40,
    )

    def session():
        return StreamingSession(
            KArySchema(depth=5, width=32768, seed=5), "ewma", alpha=0.4,
            interval_seconds=300.0, t_fraction=0.05, top_n=10,
        )

    def run_records():
        s, out = session(), []
        for start in range(0, n_records, 8192):
            out.extend(s.ingest(records[start : start + 8192]))
        out.extend(s.flush())
        return out

    def run_columns():
        s, out = session(), []
        for block in iter_interval_columns(records, 300.0,
                                           chunk_records=8192):
            out.extend(s.ingest_columns(block))
        out.extend(s.flush())
        return out

    rec_reports = col_reports = None
    t_rec = t_col = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        rec_reports = run_records()
        t_rec = min(t_rec, time.perf_counter() - t0)
        t0 = time.perf_counter()
        col_reports = run_columns()
        t_col = min(t_col, time.perf_counter() - t0)
    assert len(col_reports) == len(rec_reports)
    for a, b in zip(col_reports, rec_reports):
        assert a.index == b.index and a.threshold == b.threshold
        assert np.array_equal(a.top_keys, b.top_keys)
        assert np.array_equal(a.top_errors, b.top_errors)
    return {
        "n_records": n_records,
        "records_keys_per_sec": n_records / t_rec,
        "columnar_keys_per_sec": n_records / t_col,
        "parity_ratio": t_rec / t_col,
        "reports_identical": True,
    }


def bench_estimate(depth, width, n_keys, repeats, rng):
    schema = KArySchema(depth=depth, width=width, seed=5)
    sketch = KArySketch(schema)
    stream = rng.integers(0, 2**32, size=n_keys, dtype=np.uint64)
    sketch.update_batch(stream, rng.normal(100.0, 30.0, size=n_keys))
    keys = rng.choice(stream, size=n_keys, replace=True)
    hashes = schema.hashes
    table = np.asarray(sketch.table)
    k = width

    def reference():
        raw = np.stack([table[i, h.hash_array(keys)] for i, h in enumerate(hashes)])
        total = float(np.sum(table[0]))
        per_row = (raw - total / k) / (1.0 - 1.0 / k)
        return np.median(per_row, axis=0)

    def engine():
        return sketch.estimate_batch(keys)

    t_ref = t_new = float("inf")
    for _ in range(repeats):
        t_ref = min(t_ref, _best_of(reference, 1))
        t_new = min(t_new, _best_of(engine, 1))
    assert np.array_equal(engine(), reference())
    return {
        "depth": depth,
        "width": width,
        "n_keys": n_keys,
        "reference_seconds": t_ref,
        "engine_seconds": t_new,
        "reference_keys_per_sec": n_keys / t_ref,
        "engine_keys_per_sec": n_keys / t_new,
        "speedup": t_ref / t_new,
    }


def bench_grid_search(t_len, width, skip, models, repeats, rng):
    """search_model wall-clock: stacked tables vs the per-object search."""
    schema = KArySchema(depth=1, width=width, seed=5)
    sketches = []
    for _ in range(t_len):
        s = KArySketch(schema)
        keys = rng.integers(0, 2**32, size=2000, dtype=np.uint64)
        s.update_batch(keys, rng.normal(100.0, 30.0, size=2000))
        sketches.append(s)
    spaces = build_search_spaces()

    def reference(model):
        space = spaces[model]
        return grid_search(
            space,
            lambda f: estimated_total_energy(sketches, f, skip),
            passes=2 if space.continuous else 1,
        )

    per_model = {}
    total_ref = total_new = 0.0
    for model in models:
        ref_result = reference(model)
        new_result = search_model(model, sketches, skip_intervals=skip)
        assert new_result.best_params == ref_result.best_params, model
        assert new_result.best_energy == ref_result.best_energy, model

        t_ref = t_new = float("inf")
        for _ in range(repeats):
            t_ref = min(t_ref, _best_of(lambda: reference(model), 1))
            t_new = min(t_new, _best_of(
                lambda: search_model(model, sketches, skip_intervals=skip), 1))
        total_ref += t_ref
        total_new += t_new
        per_model[model] = {
            "reference_seconds": t_ref,
            "engine_seconds": t_new,
            "speedup": t_ref / t_new,
            "evaluations": new_result.evaluations,
            "best_params": new_result.best_params,
        }
    return {
        "intervals": t_len,
        "width": width,
        "skip_intervals": skip,
        "models": list(models),
        "per_model": per_model,
        "reference_seconds": total_ref,
        "engine_seconds": total_new,
        "speedup": total_ref / total_new,
    }


def bench_update_threads(depth, width, n_keys, repeats, rng,
                         thread_counts=(1, 2, 4)):
    """Thread-count sweep of the row-sharded UPDATE/ESTIMATE kernels.

    Depth 7 (not the matrix's 5) so the row shards stay uneven at every
    swept thread count -- the remainder-distribution path is what a
    production H would hit.  Each cell's table is asserted bit-identical
    to the single-thread run; the per-thread ratios are reported as
    ``speedup_vs_serial`` (deliberately not a ``*speedup`` leaf: the
    ratio is a property of the host's core count, which
    ``scripts/bench_compare.py`` must not treat as a regression when
    baselines come from different machines).
    """
    kernels = get_kernels()
    if kernels is None:
        return {"skipped": "no compiler available"}
    schema = KArySchema(depth=depth, width=width, seed=5)
    keys = rng.integers(0, 2**32, size=n_keys, dtype=np.uint64)
    values = rng.normal(100.0, 30.0, size=n_keys)
    sketch = KArySketch(schema)
    query = rng.choice(keys, size=n_keys, replace=True)

    saved_threads = kernels.threads
    saved_floor = kernels.min_parallel_keys
    kernels.min_parallel_keys = 0
    cells = {}
    reference_table = None
    serial_update_s = serial_estimate_s = None
    try:
        for threads in thread_counts:
            kernels.set_threads(threads)

            def update():
                sketch.reset()
                sketch.update_batch(keys, values)

            t_update = _best_of(update, repeats)
            if reference_table is None:
                reference_table = np.array(sketch.table, copy=True)
            else:
                assert np.array_equal(
                    np.asarray(sketch.table), reference_table
                ), f"thread count {threads} changed the table"
            t_estimate = _best_of(
                lambda: sketch.estimate_batch(query), repeats
            )
            if serial_update_s is None:
                serial_update_s, serial_estimate_s = t_update, t_estimate
            cells[str(threads)] = {
                "threads": threads,
                "update_seconds": t_update,
                "update_keys_per_sec": n_keys / t_update,
                "estimate_seconds": t_estimate,
                "estimate_keys_per_sec": n_keys / t_estimate,
                "update_speedup_vs_serial": serial_update_s / t_update,
                "estimate_speedup_vs_serial": serial_estimate_s / t_estimate,
            }
    finally:
        kernels.min_parallel_keys = saved_floor
        kernels.set_threads(saved_threads)
    return {
        "depth": depth,
        "width": width,
        "n_keys": n_keys,
        "thread_counts": list(thread_counts),
        "bit_identical_across_threads": True,
        "cells": cells,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="few repeats, same workloads (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per path (default 7; 2 quick)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 7)
    rng = np.random.default_rng(2003)
    # Quick mode trims *repeats only*: every cell keeps the full-mode
    # workload because the kernel-vs-reference ratio scales with batch
    # size, and CI's quick run is compared against the committed
    # full-mode baseline by scripts/bench_compare.py -- the dot-paths
    # must measure the same work to be comparable.
    n_keys = 100_000
    t_len, models = 96, ("ma", "sma", "ewma", "nshw")

    report = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "compiled_kernels": get_kernels() is not None,
        "environment": environment_provenance(),
        "quick": bool(args.quick),
        "repeats": repeats,
        "update": bench_update(5, 8192, n_keys, repeats, rng),
        "update_threads": bench_update_threads(7, 8192, n_keys, repeats, rng),
        "update_polynomial": bench_update(5, 8192, n_keys, repeats, rng,
                                          family="polynomial"),
        "estimate": bench_estimate(5, 8192, n_keys, repeats, rng),
        "columnar": bench_columnar_ingest(n_keys * 4, repeats, rng),
        "grid_search": bench_grid_search(t_len, 8192, t_len // 8, models,
                                         repeats, rng),
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    u, e, g = report["update"], report["estimate"], report["grid_search"]
    up, c = report["update_polynomial"], report["columnar"]
    env = report["environment"]
    print(f"compiled kernels: {report['compiled_kernels']}  "
          f"threads: {env['kernel_threads']}  cpus: {env['cpu_count']}")
    ut = report["update_threads"]
    for cell in ut.get("cells", {}).values():
        print(f"UPDATE@{cell['threads']}t "
              f"{cell['update_keys_per_sec']:,.0f} keys/s  "
              f"({cell['update_speedup_vs_serial']:.2f}x vs 1t)  "
              f"ESTIMATE {cell['estimate_keys_per_sec']:,.0f} keys/s "
              f"({cell['estimate_speedup_vs_serial']:.2f}x)")
    print(f"UPDATE    {u['engine_keys_per_sec']:,.0f} keys/s "
          f"(ref {u['reference_keys_per_sec']:,.0f})  {u['speedup']:.2f}x")
    print(f"UPD-POLY  {up['engine_keys_per_sec']:,.0f} keys/s "
          f"(ref {up['reference_keys_per_sec']:,.0f})  {up['speedup']:.2f}x")
    print(f"ESTIMATE  {e['engine_keys_per_sec']:,.0f} keys/s "
          f"(ref {e['reference_keys_per_sec']:,.0f})  {e['speedup']:.2f}x")
    print(f"COLUMNAR  {c['columnar_keys_per_sec']:,.0f} keys/s ingest "
          f"(records {c['records_keys_per_sec']:,.0f})  "
          f"parity {c['parity_ratio']:.2f}")
    print(f"GRID      {g['engine_seconds']:.3f}s "
          f"(ref {g['reference_seconds']:.3f}s)  {g['speedup']:.2f}x")
    print(f"wrote {args.output}")
    return report


if __name__ == "__main__":
    main()
