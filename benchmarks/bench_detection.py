"""Detection hot-path benchmark: amortized sealing vs the reference path.

Times the per-interval *seal + detect* step -- forecast, error summary,
candidate-key reconstruction, alarm thresholding, top-N ranking -- with
ingestion (sketch building) excluded, over a grid of candidate-key counts
and key-recurrence rates:

* **reference**: ``Forecaster.step`` (fresh ``Sf``/``Se`` allocations per
  interval), keys hashed from scratch every interval, full ``np.median``
  over every candidate, full top-N lexsort.
* **amortized**: ``Forecaster.step_into``, which writes ``Se`` over the
  observed summary (each timed repeat gets fresh copies, made before its
  timer starts), one shared hash pass for thresholding and top-N, and the
  exact median
  prescreen (:func:`~repro.detection.threshold.build_interval_report`)
  that runs ``np.median`` only on keys whose row-estimate bound reaches
  the alarm threshold or contends for the top-N.

The ``polyhash`` configs run the Carter-Wegman polynomial family, which
hashes in its own fused C kernel when a compiler is available.  A
``hashing`` section times every family's kernel hash against the forced
NumPy fallback at 50k keys.

Every configuration asserts the two paths' reports are **bit-for-bit
identical** -- same thresholds, same alarms in the same order, same top-N
keys and errors -- before any timing is reported.  The speedup column is
only meaningful because of that equality.

The recurrence rate controls what fraction of each interval's candidate
keys also appeared in earlier intervals (persistent flows).

Writes ``BENCH_detection.json`` next to this file (or ``--output``).
Not a pytest module -- run directly:

    PYTHONPATH=src python benchmarks/bench_detection.py [--quick]
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

from repro.detection.threshold import build_interval_report
from repro.forecast.model_zoo import make_forecaster
from repro.sketch import KArySchema

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_detection.json"

T_FRACTION = 0.05
TOP_N = 20
MODEL = ("ewma", {"alpha": 0.5})


def make_interval_keys(n_candidates, recurrence, n_intervals, rng):
    """Per-interval sorted-unique key sets with a given recurrence rate.

    A persistent pool supplies ``recurrence * n_candidates`` keys every
    interval; the rest are drawn fresh -- ephemeral flows seen only once.
    """
    pool = np.unique(rng.integers(0, 2**31, size=2 * n_candidates))[
        :n_candidates
    ].astype(np.uint64)
    n_recurring = int(round(recurrence * n_candidates))
    per_interval = []
    for _ in range(n_intervals):
        recurring = rng.permutation(pool)[:n_recurring]
        fresh = rng.integers(
            2**31, 2**32, size=n_candidates - n_recurring
        ).astype(np.uint64)
        per_interval.append(np.unique(np.concatenate([recurring, fresh])))
    return per_interval


def build_observed(schema, per_interval_keys, rng):
    """Pre-build each interval's observed sketch (ingestion is not timed)."""
    observed = []
    for keys in per_interval_keys:
        values = rng.pareto(1.3, len(keys)) * 500 + 40
        # A few heavy keys so some alarms actually fire.
        values[: max(4, len(values) // 1000)] *= 50
        observed.append(schema.from_items(keys, values))
    return observed


def run_reference(schema, observed, per_interval_keys):
    """Reference seal+detect: step(), per-interval hashing, full medians."""
    forecaster = make_forecaster(MODEL[0], **MODEL[1])
    reports = []
    for t, (obs, keys) in enumerate(zip(observed, per_interval_keys)):
        step = forecaster.step(obs)
        if step.error is None:
            continue
        reports.append(
            build_interval_report(
                step.error, keys, interval=t, t_fraction=T_FRACTION,
                top_n=TOP_N, schema=schema, prescreen=False,
            )
        )
    return reports


def run_amortized(schema, observed, per_interval_keys, stats):
    """Amortized seal+detect: step_into (consumes ``observed``), prescreen."""
    forecaster = make_forecaster(MODEL[0], **MODEL[1])
    reports = []
    for t, (obs, keys) in enumerate(zip(observed, per_interval_keys)):
        error = forecaster.step_into(obs)
        if error is None:
            continue
        reports.append(
            build_interval_report(
                error, keys, interval=t, t_fraction=T_FRACTION,
                top_n=TOP_N, schema=schema, stats=stats,
            )
        )
    return reports


def assert_reports_match(got, expected):
    assert len(got) == len(expected), (len(got), len(expected))
    for g, e in zip(got, expected):
        assert g.index == e.index
        assert g.threshold == e.threshold
        assert g.error_l2 == e.error_l2
        assert [(a.key, a.estimated_error) for a in g.alarms] == [
            (a.key, a.estimated_error) for a in e.alarms
        ]
        assert np.array_equal(g.top_keys, e.top_keys)
        assert np.array_equal(g.top_errors, e.top_errors)


def bench_config(schema, n_candidates, recurrence, n_intervals, repeats, rng):
    per_interval_keys = make_interval_keys(
        n_candidates, recurrence, n_intervals, rng
    )
    observed = build_observed(schema, per_interval_keys, rng)

    def time_best(runner, consumes=False):
        """Best of ``repeats``; a consuming runner gets fresh copies."""
        best, reports, extra = float("inf"), None, None
        for _ in range(repeats):
            series = [s.copy() for s in observed] if consumes else observed
            t0 = time.perf_counter()
            result = runner(series)
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
            reports, extra = result
        return reports, best, extra

    ref_reports, ref_s, _ = time_best(
        lambda series: (run_reference(schema, series, per_interval_keys), None)
    )

    def amortized(series):
        stats = {}
        return run_amortized(schema, series, per_interval_keys, stats), stats

    amo_reports, amo_s, stats = time_best(amortized, consumes=True)
    assert_reports_match(amo_reports, ref_reports)

    sealed = len(ref_reports)
    candidates = stats.get("candidates", 0)
    evaluated = stats.get("median_evaluated", 0)
    return {
        "n_candidates": n_candidates,
        "recurrence": recurrence,
        "n_intervals": n_intervals,
        "family": schema.family,
        "sealed_intervals": sealed,
        "reference_seconds": ref_s,
        "amortized_seconds": amo_s,
        "reference_ms_per_interval": 1e3 * ref_s / sealed,
        "amortized_ms_per_interval": 1e3 * amo_s / sealed,
        "speedup": ref_s / amo_s,
        "reports_identical_to_reference": True,
        "prescreen": {
            "candidates": candidates,
            "median_evaluated": evaluated,
            "evaluated_fraction": evaluated / candidates if candidates else 0.0,
        },
    }


def bench_obs_overhead(schema, n_candidates, n_intervals, repeats, rng):
    """Seal+detect with the NullRecorder default vs an enabled recorder.

    Runs the shipped :class:`OfflineTwoPassDetector` end to end (sketch
    build, forecast step, report build) both ways and reports the
    enabled-path overhead fraction.  The reports are asserted bit-equal
    first: observability is an observer, never a participant.  The
    ``overhead_fraction`` leaf is the regression-guard hook --
    ``scripts/bench_compare.py`` fails when it exceeds its budget.
    """
    from repro.detection import OfflineTwoPassDetector
    from repro.obs import PipelineRecorder
    from repro.streams.model import KeyedUpdates

    per_interval_keys = make_interval_keys(n_candidates, 0.8, n_intervals, rng)
    batches = []
    for t, keys in enumerate(per_interval_keys):
        values = rng.pareto(1.3, len(keys)) * 500 + 40
        values[: max(4, len(values) // 1000)] *= 50
        batches.append(
            KeyedUpdates(index=t, keys=keys, values=values, duration=300.0)
        )

    def run(recorder):
        detector = OfflineTwoPassDetector(
            schema, MODEL[0], t_fraction=T_FRACTION, top_n=TOP_N,
            recorder=recorder, **MODEL[1],
        )
        return detector.detect(batches)

    def timed(recorder):
        t0 = time.perf_counter()
        reports = run(recorder)
        return reports, time.perf_counter() - t0

    # Paired rounds (null then enabled, back to back) and the *median*
    # per-round ratio: scheduling jitter on a shared box swings a
    # best-of-N ratio by several percent -- more than the overhead
    # budget itself -- while paired medians cancel the drift.
    rounds = max(5 * repeats, 15)
    ratios, null_best, obs_best = [], float("inf"), float("inf")
    null_reports = obs_reports = None
    for _ in range(rounds):
        null_reports, null_s = timed(None)
        obs_reports, obs_s = timed(PipelineRecorder())
        ratios.append(obs_s / null_s)
        null_best = min(null_best, null_s)
        obs_best = min(obs_best, obs_s)
    assert_reports_match(obs_reports, null_reports)
    return {
        "n_candidates": n_candidates,
        "n_intervals": n_intervals,
        "rounds": rounds,
        "null_seconds": null_best,
        "enabled_seconds": obs_best,
        "overhead_fraction": float(np.median(ratios)) - 1.0,
        "reports_identical": True,
    }


def bench_hash_families(repeats, rng):
    """Per-family hashing at 50k keys: fused kernel vs NumPy fallback.

    ``hash_ms`` is ``schema.bucket_indices`` as shipped (the fused C
    kernel when a compiler is available, NumPy otherwise) and
    ``fallback_hash_ms`` the pure-NumPy path, forced.  ``kernel_speedup``
    (fallback / kernel) is emitted only when kernels compiled.
    """
    keys = np.unique(rng.integers(0, 2**31, size=50_000).astype(np.uint64))

    def best_ms(f, reps):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            f()
            best = min(best, time.perf_counter() - t0)
        return 1e3 * best

    reps = max(3, 2 * repeats)
    out = {}
    for family in ("tabulation", "polynomial", "two-universal"):
        schema = KArySchema(depth=5, width=32768, seed=5, family=family)
        stacked = schema._stacked
        identical = bool(
            np.array_equal(
                stacked._hash_all_numpy(keys), schema.bucket_indices(keys)
            )
        )
        hash_ms = best_ms(lambda: schema.bucket_indices(keys), reps)
        fallback_ms = best_ms(lambda: stacked._hash_all_numpy(keys), reps)
        cell = {
            "n_keys": len(keys),
            "hash_ms": hash_ms,
            "fallback_hash_ms": fallback_ms,
            "identical": identical,
        }
        if stacked.kernel_accelerated:
            cell["kernel_speedup"] = fallback_ms / hash_ms
        out[family] = cell
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small grid / few repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration (default 5; 2 quick)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 5)
    schema = KArySchema(depth=5, width=32768, seed=5)
    poly_schema = KArySchema(depth=5, width=32768, seed=5, family="polynomial")

    # The headline configurations (50k candidates, 80% recurring; default
    # tabulation family plus the polynomial family) appear in both modes so quick CI runs and the committed full
    # report track the same "speedup" dot-paths for the regression guard.
    # CI compares the quick run against the committed full-mode baseline
    # (scripts/bench_compare.py), so the shared dot-paths must measure
    # the same thing: same per-config workload (n_intervals, and
    # per-config rng streams below make the data identical) AND the same
    # process history -- allocator warm-up from earlier configs
    # measurably shifts later cells.  The quick grid is therefore a
    # strict *prefix* of the full grid; full mode appends the rest.
    n_intervals = 12
    grid = [(schema, 10_000, 0.8), (schema, 50_000, 0.8),
            (schema, 50_000, 0.0), (poly_schema, 50_000, 0.8)]
    if not args.quick:
        grid += [(schema, 5_000, 0.8), (schema, 20_000, 0.8),
                 (schema, 100_000, 0.8), (schema, 50_000, 0.5),
                 (schema, 50_000, 0.95), (poly_schema, 50_000, 0.0)]

    configs = {}
    for cfg_schema, n_candidates, recurrence in grid:
        name = f"c{n_candidates}_r{int(round(recurrence * 100))}"
        if cfg_schema.family != "tabulation":
            name += "_polyhash"
        # Independent per-config streams: a shared rng would make each
        # config's data depend on grid *order*, so quick mode (shorter
        # grid) would measure different keys than the committed
        # full-mode baseline for the same dot-path.
        configs[name] = bench_config(
            cfg_schema, n_candidates, recurrence, n_intervals, repeats,
            np.random.default_rng(zlib.crc32(name.encode())),
        )

    hashing = bench_hash_families(repeats, np.random.default_rng(2003))
    obs = bench_obs_overhead(
        schema, 50_000, n_intervals, max(repeats, 3),
        np.random.default_rng(2004),
    )

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
        "detection": {"configs": configs},
        "hashing": hashing,
        "obs": obs,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"cpu_count: {report['cpu_count']}  model: {MODEL[0]}  "
          f"T={T_FRACTION}  top_n={TOP_N}")
    header = (f"{'config':>22s} {'ref ms/iv':>10s} {'amo ms/iv':>10s} "
              f"{'speedup':>8s} {'median eval':>12s}")
    print(header)
    for name, c in configs.items():
        print(f"{name:>22s} {c['reference_ms_per_interval']:10.3f} "
              f"{c['amortized_ms_per_interval']:10.3f} "
              f"{c['speedup']:7.2f}x "
              f"{c['prescreen']['evaluated_fraction']:11.1%}")
    print(f"{'hash family':>22s} {'hash ms':>10s} {'numpy ms':>10s} "
          f"{'kernel':>8s}")
    for family, h in hashing.items():
        kern = (f"{h['kernel_speedup']:7.2f}x" if "kernel_speedup" in h
                else f"{'--':>8s}")
        print(f"{family:>22s} {h['hash_ms']:10.3f} "
              f"{h['fallback_hash_ms']:10.3f} {kern}")
    print(f"{'obs overhead':>22s} null={obs['null_seconds']:.3f}s "
          f"enabled={obs['enabled_seconds']:.3f}s "
          f"overhead={obs['overhead_fraction']:+.2%}")
    print(f"wrote {args.output}")
    return report


if __name__ == "__main__":
    main()
