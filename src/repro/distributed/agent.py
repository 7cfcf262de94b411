"""Per-site agent: local interval sketching with communication filtering.

The paper's motivating deployment sketches at every router and combines
centrally.  The agent is the router half: it ingests its site's records
through the same interval machinery as a :class:`StreamingSession`
(chunk splitting, gap intervals, lateness policy, key collection), seals
per-interval sketches locally, and ships them to the coordinator --
unless *error-bounded communication filtering* decides the sketch has
not drifted enough to be worth transmitting.

Filtering rule (the continuous-distributed-monitoring idea of
"Sketch-based Querying of Distributed Sliding-Window Data Streams"): let
``S`` be the interval's sealed sketch and ``S_last`` the site's last
*transmitted* sketch.  The agent ships ``S`` when

    ``||S - S_last||_2  >  drift_fraction * t_fraction * ||S||_2``

i.e. when the local L2 drift since the last transmission exceeds a
configurable fraction of the site's share of the detection threshold
(``T * sqrt(F2)`` is the network-wide alarm bar; a site whose local
change is far below it cannot move the global decision by more than the
budget).  Otherwise it sends a ~60-byte drift digest and the coordinator
substitutes ``S_last`` -- introducing a bounded, operator-chosen error.
``drift_fraction = 0`` disables filtering: every interval ships and the
coordinator's reports are **bit-identical** to a single-process run over
the concatenated traffic (sketch linearity; integral update values are
exact in float64).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from repro.detection.session import StreamingSession
from repro.distributed.frames import read_frame, write_frame
from repro.sketch.serialization import dumps, schema_identity
from repro.streams.sharding import iter_interval_chunks


class SealedInterval(NamedTuple):
    """One locally sealed interval, ready for the transmit decision."""

    index: int
    summary: object
    keys: np.ndarray


class LocalSketcher(StreamingSession):
    """A :class:`StreamingSession` that seals into an outbox, never detects.

    Reuses the session's entire ingestion surface -- chunk-to-interval
    splitting, empty gap sealing, lateness tolerance, per-interval key
    collection (``key_source="twopass"``) or its omission (recovering
    sources) -- but replaces the seal step: instead of forecasting and
    alarming locally, the sealed ``(index, summary, keys)`` lands in
    :attr:`outbox` for the agent runtime to ship.  Forecasting and
    detection are the coordinator's job; running them per site would
    alarm on local noise the network-wide view averages out.
    """

    def __init__(self, schema, **kwargs) -> None:
        # The forecaster slot is required by the base constructor but
        # never stepped -- _seal_current below bypasses it entirely.
        super().__init__(schema, "ewma", **kwargs)
        self.outbox: List[SealedInterval] = []

    def _seal_current(self) -> list:
        with self.recorder.time("seal"):
            observed, keys = self._interval.collect()
        self._intervals_sealed += 1
        self.outbox.append(
            SealedInterval(int(self._current_index), observed, keys)
        )
        return []

    def drain(self) -> List[SealedInterval]:
        """Remove and return every sealed interval accumulated so far."""
        out, self.outbox = self.outbox, []
        return out


class DriftGate:
    """Decides transmit-vs-suppress per sealed interval (see module docs)."""

    def __init__(self, t_fraction: float, drift_fraction: float) -> None:
        if drift_fraction < 0:
            raise ValueError(
                f"drift_fraction must be >= 0, got {drift_fraction}"
            )
        self.t_fraction = float(t_fraction)
        self.drift_fraction = float(drift_fraction)
        self._last_sent = None

    def decide(self, summary) -> tuple:
        """Return ``(transmit, drift_l2)`` for one sealed summary.

        The first interval always transmits (there is nothing cached to
        substitute); with ``drift_fraction = 0`` everything does.
        """
        if self._last_sent is None or self.drift_fraction == 0.0:
            return True, float("inf") if self._last_sent is None else 0.0
        drift = (summary - self._last_sent).l2_norm()
        budget = self.drift_fraction * self.t_fraction * summary.l2_norm()
        return drift > budget, drift

    def mark_sent(self, summary) -> None:
        """Record ``summary`` as the site's last transmitted sketch."""
        self._last_sent = summary


@dataclass
class AgentStats:
    """Transmission counters for one agent run."""

    records_streamed: int = 0
    intervals_sealed: int = 0
    sketches_sent: int = 0
    suppressed: int = 0
    frames_sent: int = 0
    bytes_sent: int = 0
    heartbeats_sent: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "records_streamed": self.records_streamed,
            "intervals_sealed": self.intervals_sealed,
            "sketches_sent": self.sketches_sent,
            "suppressed": self.suppressed,
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "heartbeats_sent": self.heartbeats_sent,
        }
        out.update(self.extra)
        return out


async def run_agent(
    records: np.ndarray,
    host: str,
    port: int,
    *,
    schema,
    site: str,
    interval_seconds: float = 300.0,
    key_scheme: str = "dst_ip",
    value_scheme: str = "bytes",
    key_source: str = "twopass",
    t_fraction: float = 0.05,
    drift_fraction: float = 0.0,
    chunk_records: int = 4096,
    heartbeat_interval: Optional[float] = None,
    lateness_tolerance: float = 0.0,
    recorder=None,
) -> AgentStats:
    """Stream one site's records to a coordinator; returns the stats.

    Connects, handshakes (``HELLO`` carrying the schema identity; the
    coordinator refuses mismatches with an ``ERROR`` frame), then feeds
    ``records``, in any order, through a :class:`LocalSketcher` in
    time-sorted chunks of at most ``chunk_records`` rows that never
    straddle an interval edge
    (:func:`~repro.streams.sharding.iter_interval_chunks`), shipping each
    sealed interval through the :class:`DriftGate`.  Ends with a flush
    and a clean ``BYE``.
    """
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    stats = AgentStats()
    sketcher = LocalSketcher(
        schema,
        interval_seconds=interval_seconds,
        key_scheme=key_scheme,
        value_scheme=value_scheme,
        key_source=key_source,
        lateness_tolerance=lateness_tolerance,
        recorder=recorder,
    )
    gate = DriftGate(t_fraction, drift_fraction)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        stats.bytes_sent += await write_frame(
            writer,
            "hello",
            {
                "site": site,
                "schema": schema_identity(schema),
                "interval_seconds": float(interval_seconds),
                "key_source": key_source,
            },
        )
        stats.frames_sent += 1
        reply = await read_frame(reader)
        if reply is None:
            raise ConnectionError(
                f"coordinator closed the connection during handshake "
                f"(site {site!r})"
            )
        kind, payload = reply
        if kind != "ack":
            raise ConnectionError(
                f"coordinator refused site {site!r}: "
                f"{payload.get('reason', kind)}"
            )

        async def _ship_sealed() -> None:
            for sealed in sketcher.drain():
                stats.intervals_sealed += 1
                transmit, drift = gate.decide(sealed.summary)
                if transmit:
                    stats.bytes_sent += await write_frame(
                        writer,
                        "sketch",
                        {
                            "site": site,
                            "interval": sealed.index,
                            "sketch": dumps(sealed.summary),
                            "keys": np.asarray(sealed.keys, dtype=np.uint64),
                        },
                    )
                    stats.sketches_sent += 1
                    gate.mark_sent(sealed.summary)
                else:
                    stats.bytes_sent += await write_frame(
                        writer,
                        "digest",
                        {
                            "site": site,
                            "interval": sealed.index,
                            "drift": float(drift),
                            "l2": float(sealed.summary.l2_norm()),
                        },
                    )
                    stats.suppressed += 1
                stats.frames_sent += 1
                if recorder is not None and recorder.enabled:
                    recorder.count("repro_agent_frames_total", site=site)

        last_beat = time.monotonic()
        for chunk in iter_interval_chunks(
            records, interval_seconds, chunk_records
        ):
            sketcher.ingest(chunk)
            stats.records_streamed += len(chunk)
            await _ship_sealed()
            now = time.monotonic()
            if (
                heartbeat_interval is not None
                and now - last_beat >= heartbeat_interval
            ):
                stats.bytes_sent += await write_frame(
                    writer,
                    "heartbeat",
                    {"site": site, "watermark": float(sketcher.watermark)},
                )
                stats.frames_sent += 1
                stats.heartbeats_sent += 1
                last_beat = now
        sketcher.flush()
        await _ship_sealed()
        stats.bytes_sent += await write_frame(writer, "bye", {"site": site})
        stats.frames_sent += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
    return stats


def stream_trace(records: np.ndarray, host: str, port: int, **kwargs) -> AgentStats:
    """Synchronous wrapper around :func:`run_agent` (the CLI entry point)."""
    return asyncio.run(run_agent(records, host, port, **kwargs))
