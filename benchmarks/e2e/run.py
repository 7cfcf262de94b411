"""End-to-end detection benchmark: records -> sketch -> forecast -> alarms.

Runs each workload (see ``workloads.py``) in its own child process
(``harness.py``), prints every metric by name with its unit, and ends with
one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` adds one traced pass and reports the
per-layer metrics instead.  ``--seconds`` defaults to the file's
``run_seconds``.  With one workload the metrics are keyed by name; with
several, by ``<workload>.<name>``.  Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S | --passes N] [--trace 0|1] [--output F.json]
        [--trace-dir D]

Children get ``src`` on ``PYTHONPATH`` and a temporary directory under
``.bench_build/`` (where the compiled kernels are cached), so the run reads
and writes only inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
CHILD_TIMEOUT_S = 900  # the first run in a checkout compiles the kernels


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metric catalogue."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, workload: str) -> dict:
    cmd = [
        sys.executable, str(E2E_DIR / "harness.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--passes", str(args.passes), "--trace", str(args.trace),
    ]
    if args.trace_dir:
        cmd += ["--trace-dir", str(args.trace_dir.resolve())]
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload}: harness exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time spent in timed passes (at least 3 passes)")
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many timed passes instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: traced pass, per-layer metrics")
    parser.add_argument("--output", type=Path, help="write full results here")
    parser.add_argument("--trace-dir", type=Path,
                        help="write each traced pass as a Chrome trace here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no repro sources under {ROOT / 'src'}")
    kind = "per_layer" if args.trace else "end_to_end"

    workloads = args.workload or names
    results, metrics = {}, {}
    attempted = failed = 0
    for workload in workloads:
        result = run_child(args, workload)
        results[workload] = result
        attempted += result["attempted"]
        failed += result["failed"]
        if "error" in result:
            print(f"{workload}: error: {result['error']}")
            continue
        for metric in spec[kind]:
            name, unit = metric["name"], metric["unit"]
            value = result[kind][name]
            print(f"{workload:18s} {name:44s} {value:>16.6g} {unit}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
        for name, value in result["extra"].items():
            print(f"{workload:18s} {name:44s} {value:>16.6g} (not gated)")

    if args.output:
        args.output.write_text(json.dumps({"seed": args.seed, "workloads": results}, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
