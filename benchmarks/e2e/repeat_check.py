"""Do repeated runs of the same code agree within each metric's bound?

Runs ``SETS`` sets of ``RUNS`` benchmark runs of every workload, one
workload per ``run.py`` invocation with ``--trace 0`` and a different seed
for every run.  For each (metric, workload) it prints the median of each
set, each set's spread (interquartile range over median), and how far
every later set's median lies from the first set's, in either direction,
as a share of the first.  A pair agrees when that distance is within the
metric's ``BENCHMARK.json`` bound and, for every metric but ``setup_s``,
each set's spread is too.  Exits 1 when some pair does not agree.  Run from
the repository root::

    python3 benchmarks/e2e/repeat_check.py

Per-run results are kept under ``.bench_build/repeat_check/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from statistics import median, quantiles

from run import E2E_DIR, ROOT, load_spec

SETS = 2
RUNS = 10


def spread(values) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main() -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    out_dir = ROOT / ".bench_build" / "repeat_check"
    out_dir.mkdir(parents=True, exist_ok=True)

    # values[set][workload][metric] -> one value per run
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for r in range(RUNS):
            seed = 1 + s * RUNS + r
            for w in workloads:
                output = out_dir / f"set{s}-run{r}-{w}.json"
                subprocess.run(
                    [sys.executable, str(E2E_DIR / "run.py"), "--workload", w,
                     "--seed", str(seed), "--trace", "0", "--output", str(output)],
                    check=True, stdout=subprocess.DEVNULL,
                )
                result = json.loads(output.read_text())["workloads"][w]
                if result["failed"]:
                    sys.exit(f"set {s} run {r} ({w}): {result['failed']} failed checks")
                for name, value in result["end_to_end"].items():
                    values[s][w].setdefault(name, []).append(value)
            print(f"set {s} run {r} (seed {seed}) done", flush=True)

    all_agree = True
    header = "".join(f" {'median ' + str(s):>12s} {'spread':>7s}" for s in range(SETS))
    print(f"{'workload':18s} {'metric':14s}{header} {'apart':>6s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for w in workloads:
            runs = [values[s][w][name] for s in range(SETS)]
            medians = [median(v) for v in runs]
            spreads = [spread(v) for v in runs]
            apart = max(abs(m - medians[0]) / medians[0] for m in medians[1:])
            agree = apart <= bound and (name == "setup_s" or max(spreads) <= bound)
            all_agree &= agree
            cols = "".join(f" {m:12.5g} {sp:7.3f}" for m, sp in zip(medians, spreads))
            print(f"{w:18s} {name:14s}{cols} {apart:6.3f} {bound:6.2f}"
                  f" {'agree' if agree else 'DISAGREE'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
