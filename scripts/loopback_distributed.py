#!/usr/bin/env python
"""CI loopback distributed detection: coordinator + 3 agent processes.

Runs the real multi-process path (``repro serve`` + three ``repro
agent`` subprocesses over loopback TCP) three times on a low-drift trace
with one planted change, and demands:

1. **Filtering off** -- the coordinator's per-interval report lines are
   byte-identical to the single-process serial reference formatted
   through the same printer, and nothing is suppressed.
2. **Filtering on** (``--drift-fraction 0.5``) -- the agents suppress
   transmissions (coordinator ``suppressed`` counter > 0), sketch bytes
   on the wire drop by >= 30%, and the planted change still alarms at
   its interval with the planted key on top (recall 1.0).
3. **Recovering key source** (``--key-source invertible`` on ``serve``
   and on the agents) -- the fleet exits 0 within the timeout, every
   interval is sealed, and the planted change alarms at its interval
   with the planted key on top.  Merged MV votes may elect other bucket
   candidates than one stream's, so the lines are not compared with the
   serial reference.

Every process must finish within :data:`TIMEOUT` seconds.

Exits non-zero on any violation; prints the tallies on success.
Run as: ``PYTHONPATH=src python scripts/loopback_distributed.py``
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import tempfile

import numpy as np

from repro.distributed import partition_records, run_serial_reference
from repro.sketch import KArySchema
from repro.streams import make_records, write_trace

INTERVAL = 300.0
N_SITES = 3
DEPTH, WIDTH, SEED = 5, 2048, 7
T_FRACTION = 0.05
TOP_N = 5
CHANGE_KEY = 1040
CHANGE_INTERVAL = 8
INTERVALS = 12
TIMEOUT = 120

ENV = {**os.environ, "PYTHONPATH": "src"}


def _low_drift_trace() -> np.ndarray:
    """12 intervals of exactly repeating traffic plus one planted spike.

    198 records per interval (66 keys x 3, a multiple of the site
    count), so the round-robin partition gives every site identical
    per-interval traffic -- zero local drift outside the change.
    """
    per = 198
    ts = np.concatenate(
        [
            t * INTERVAL + np.arange(per) * (INTERVAL / (per + 1))
            for t in range(INTERVALS)
        ]
    )
    keys = np.tile(1000 + (np.arange(per) % 66), INTERVALS).astype(np.uint32)
    byts = np.tile(500.0 + (np.arange(per) % 66) * 7.0, INTERVALS)
    change = (keys == CHANGE_KEY) & (
        (ts >= CHANGE_INTERVAL * INTERVAL)
        & (ts < (CHANGE_INTERVAL + 1) * INTERVAL)
    )
    byts = byts + np.where(change, 5e5, 0.0)
    return make_records(ts, keys, byts.astype(np.uint64))


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _reference_lines(records: np.ndarray) -> list[str]:
    """The serial reference, formatted exactly like the serve printer."""
    schema = KArySchema(depth=DEPTH, width=WIDTH, seed=SEED)
    reports = run_serial_reference(
        records, schema, "ewma",
        interval_seconds=INTERVAL, t_fraction=T_FRACTION, top_n=TOP_N,
    )
    lines = []
    for report in reports:
        line = (
            f"interval {report.index:4d}  "
            f"L2={report.error_l2:12.4g}  alarms={report.alarm_count:5d}"
        )
        top = ", ".join(
            f"{key}:{err:.3g}"
            for key, err in zip(
                report.top_keys[:TOP_N].tolist(),
                report.top_errors[:TOP_N].tolist(),
            )
        )
        lines.append(line + f"  top=[{top}]")
    return lines


def _run_fleet(
    trace_paths: list[str], drift_fraction: float, key_source: str = "twopass"
) -> tuple[list[str], dict[str, int], int]:
    """Serve + agents; return (report lines, coordinator stats, bytes)."""
    port = _free_port()
    serve = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--interval", str(INTERVAL),
            "--depth", str(DEPTH), "--width", str(WIDTH),
            "--seed", str(SEED),
            "--threshold", str(T_FRACTION), "--top-n", str(TOP_N),
            "--key-source", key_source,
            "--exit-when-complete", "--expect-sites", str(N_SITES),
        ],
        env=ENV, stdout=subprocess.PIPE, text=True,
    )
    fleet = [serve]
    try:
        assert serve.stdout is not None
        listening = serve.stdout.readline()
        if "listening" not in listening:
            raise RuntimeError(f"coordinator failed to start: {listening!r}")

        fleet += [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "agent", path,
                    "--site", f"site-{i}",
                    "--connect", f"127.0.0.1:{port}",
                    "--interval", str(INTERVAL),
                    "--depth", str(DEPTH), "--width", str(WIDTH),
                    "--seed", str(SEED),
                    "--threshold", str(T_FRACTION),
                    "--key-source", key_source,
                    "--drift-fraction", str(drift_fraction),
                ],
                env=ENV, stdout=subprocess.PIPE, text=True,
            )
            for i, path in enumerate(trace_paths)
        ]
        agent_bytes = 0
        for agent in fleet[1:]:
            out, _ = agent.communicate(timeout=TIMEOUT)
            if agent.returncode != 0:
                raise RuntimeError(f"agent failed:\n{out}")
            match = re.search(r"bytes_sent=(\d+)", out)
            assert match, f"no bytes_sent in agent output:\n{out}"
            agent_bytes += int(match.group(1))
        out, _ = serve.communicate(timeout=TIMEOUT)
        if serve.returncode != 0:
            raise RuntimeError(f"coordinator failed:\n{out}")
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(
            f"{key_source} fleet did not finish within {TIMEOUT}s: {exc.cmd}"
        ) from None
    finally:
        for proc in fleet:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    report_lines = [
        line for line in out.splitlines() if line.startswith("interval ")
    ]
    stats_line = next(
        line for line in out.splitlines() if line.startswith("coordinator: ")
    )
    stats = {
        k: int(v)
        for k, v in (
            kv.split("=") for kv in stats_line.split(": ", 1)[1].split()
        )
    }
    return report_lines, stats, agent_bytes


def _change_line(lines: list[str]) -> str | None:
    """The planted interval's report line if its key alarmed on top."""
    line = next(
        (x for x in lines if x.startswith(f"interval {CHANGE_INTERVAL:4d}")),
        None,
    )
    if line is None or f"{CHANGE_KEY}:" not in line or "alarms=    0" in line:
        return None
    return line


def main() -> int:
    records = _low_drift_trace()
    reference = _reference_lines(records)
    if _change_line(reference) is None:
        print(f"planted change missing from reference: {reference}")
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, part in partition_records(records, N_SITES).items():
            path = os.path.join(tmp, f"{name}.trace")
            write_trace(path, part)
            paths.append(path)

        print(f"== filtering off: {N_SITES} agents, drift_fraction=0.0")
        lines_off, stats_off, bytes_off = _run_fleet(paths, 0.0)
        if lines_off != reference:
            print("BIT-IDENTITY FAILED: coordinator vs serial reference")
            for got, want in zip(lines_off, reference):
                if got != want:
                    print(f"  got:  {got}\n  want: {want}")
            return 1
        if stats_off["suppressed"] != 0:
            print(f"unexpected suppression with filtering off: {stats_off}")
            return 1
        print(
            f"bit-identical over {len(lines_off)} reports, "
            f"{bytes_off} sketch bytes on the wire"
        )

        print(f"== filtering on: drift_fraction=0.5")
        lines_on, stats_on, bytes_on = _run_fleet(paths, 0.5)
        if stats_on["suppressed"] <= 0:
            print(f"no suppression on the low-drift trace: {stats_on}")
            return 1
        if bytes_on > 0.7 * bytes_off:
            print(
                f"bytes did not drop >= 30%: {bytes_on} vs {bytes_off}"
            )
            return 1
        if _change_line(lines_on) is None:
            print(f"planted change missed with filtering on: {lines_on}")
            return 1
        print(
            f"suppressed={stats_on['suppressed']} "
            f"bytes {bytes_on}/{bytes_off} "
            f"({1 - bytes_on / bytes_off:.0%} saved), recall 1.0"
        )

        print("== recovering key source: --key-source invertible")
        lines_inv, stats_inv, _ = _run_fleet(paths, 0.0, "invertible")
        if (
            stats_inv["intervals_sealed"] != INTERVALS
            or len(lines_inv) != INTERVALS - 1
        ):
            print(f"not every interval sealed: {stats_inv}, {lines_inv}")
            return 1
        if _change_line(lines_inv) is None:
            print(f"planted change missed with invertible keys: {lines_inv}")
            return 1
        print(f"{len(lines_inv)} reports, planted change on top, recall 1.0")
    print("loopback distributed detection: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
