#!/usr/bin/env python
"""CI fault injection: SIGKILL the detecting process, resume, demand exact reports.

A child process streams a generated trace through a ``StreamingSession``
in chunks, writes a checkpoint (``save_checkpoint``) every few chunks,
and prints each report as it is sealed and a progress line after each
save.  The parent SIGKILLs the child after its third checkpoint --
mid-trace -- and checks that the child died from the signal.  A session
restored with ``load_checkpoint`` then ingests every record past its
``watermark`` and flushes.  The child's reports for intervals before the
restored ``current_interval``, followed by the resumed reports, must
equal an uninterrupted reference exactly: index, threshold, ``error_l2``,
alarm keys and estimated errors.

Two configurations run: a k-ary sketch with two-pass keys, and an
invertible sketch with invertible recovery.  Exits non-zero on any
mismatch or when the child did not die from SIGKILL.
Run as: ``PYTHONPATH=src python scripts/fault_injection.py``
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.detection import StreamingSession, load_checkpoint, save_checkpoint
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams import make_records

INTERVAL = 300.0
CHUNK = 512
CHECKPOINT_EVERY = 5  # chunks between checkpoints
KILL_AFTER = 3  # checkpoints the child writes before it is killed

CONFIGS = {
    "kary-twopass": (KArySchema, "twopass"),
    "invertible-invertible": (InvertibleKArySchema, "invertible"),
}


def _make_records():
    rng = np.random.default_rng(20260806)
    n = 40000
    return make_records(
        timestamps=np.sort(rng.uniform(0, 20 * INTERVAL, n)),
        dst_ips=rng.integers(0, 500, n).astype(np.uint32),
        byte_counts=rng.integers(40, 1500, n).astype(np.float64),
    )


def _make_session(config):
    schema_cls, key_source = CONFIGS[config]
    return StreamingSession(
        schema_cls(depth=5, width=2048, seed=11), "ewma", alpha=0.4,
        interval_seconds=INTERVAL, t_fraction=0.02, key_source=key_source,
    )


def _fields(report):
    """The compared part of a report, as JSON-ready values."""
    return {
        "index": int(report.index),
        "threshold": float(report.threshold),
        "error_l2": float(report.error_l2),
        "alarms": [[int(a.key), float(a.estimated_error)] for a in report.alarms],
    }


def _run(session, records):
    reports = []
    for start in range(0, len(records), CHUNK):
        reports.extend(session.ingest(records[start : start + CHUNK]))
    reports.extend(session.flush())
    return [_fields(r) for r in reports]


def _child(config, path):
    """Detect over the whole trace, checkpointing every few chunks."""

    def emit(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    records = _make_records()
    session = _make_session(config)
    saves = 0
    for n, start in enumerate(range(0, len(records), CHUNK), 1):
        for report in session.ingest(records[start : start + CHUNK]):
            emit({"report": _fields(report)})
        if n % CHECKPOINT_EVERY == 0:
            save_checkpoint(session, path)
            saves += 1
            emit({"checkpoint": saves, "watermark": session.watermark})
    for report in session.flush():
        emit({"report": _fields(report)})
    return 0


def _crash_and_resume(config, records, workdir) -> bool:
    path = Path(workdir) / f"{config}.kcp"
    child = subprocess.Popen(
        [sys.executable, __file__, "--child", config, str(path)],
        stdout=subprocess.PIPE, text=True,
    )
    lines = []
    for line in child.stdout:
        lines.append(line)
        if json.loads(line).get("checkpoint") == KILL_AFTER:
            child.send_signal(signal.SIGKILL)
            break
    # Whatever the child printed before the signal landed is still in the
    # pipe; a line cut short by the kill has no newline and is dropped.
    lines.extend(child.stdout)
    child.wait(timeout=60)
    if child.returncode != -signal.SIGKILL:
        print(f"[FAIL] {config}: child exited with {child.returncode}, "
              "not by SIGKILL")
        return False

    session = load_checkpoint(path)
    cut, watermark = session.current_interval, session.watermark
    before = [
        obj["report"]
        for obj in (json.loads(line) for line in lines if line.endswith("\n"))
        if "report" in obj and obj["report"]["index"] < cut
    ]
    resumed = _run(session, records[records["timestamp"] > watermark])
    reference = _run(_make_session(config), records)

    ok = before + resumed == reference
    status = "OK " if ok else "FAIL"
    print(
        f"[{status}] {config}: killed after checkpoint {KILL_AFTER} "
        f"(resumed at interval {cut}, watermark={watermark:.3f}s); "
        f"{len(before)} child + {len(resumed)} resumed reports vs "
        f"{len(reference)} uninterrupted"
    )
    return ok


def main() -> int:
    records = _make_records()
    with tempfile.TemporaryDirectory() as workdir:
        results = [_crash_and_resume(c, records, workdir) for c in CONFIGS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        sys.exit(_child(sys.argv[2], sys.argv[3]))
    sys.exit(main())
