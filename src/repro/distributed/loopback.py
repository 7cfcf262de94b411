"""End-to-end loopback harness: coordinator + N agents in one process.

The distributed tier's correctness claim is sharp -- with communication
filtering off, the coordinator's reports are **bit-identical** to a
single-process :class:`~repro.detection.session.StreamingSession` over
the concatenated traffic.  This module makes the claim executable: it
splits a trace across N simulated sites, runs a real
:class:`~repro.distributed.coordinator.CoordinatorServer` on a loopback
TCP port with one real :func:`~repro.distributed.agent.run_agent` task
per site (full wire path: frames, serialization, backpressure queue),
and hands back everything needed to compare against the serial
reference.  Tests and the CI job both drive it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.detection.session import StreamingSession
from repro.detection.threshold import IntervalDetection
from repro.distributed.agent import AgentStats, run_agent
from repro.distributed.coordinator import CoordinatorServer, IntervalMerger


def partition_records(
    records: np.ndarray, n_sites: int, prefix: str = "site"
) -> Dict[str, np.ndarray]:
    """Deal a time-sorted trace round-robin across ``n_sites`` sites.

    Slicing (``records[i::n]``) preserves record order, so each site's
    stream stays time-sorted -- the agent-side sessions never see
    out-of-order records.  Round-robin (rather than hash-of-key) spreads
    every key over every site, which is the interesting case for
    COMBINE: no single site sees the whole story of any key.
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    width = len(str(n_sites - 1))
    return {
        f"{prefix}-{i:0{width}d}": records[i::n_sites]
        for i in range(n_sites)
    }


@dataclass
class LoopbackResult:
    """Everything a loopback run produced, for assertions and reporting."""

    reports: List[IntervalDetection]
    agent_stats: Dict[str, AgentStats]
    coordinator_stats: dict
    site_stats: dict
    sealed_through: Optional[int]
    complete: bool

    @property
    def sketch_bytes_sent(self) -> int:
        """Total bytes put on the wire by every agent."""
        return sum(s.bytes_sent for s in self.agent_stats.values())

    @property
    def suppressed(self) -> int:
        """Intervals the drift gates held back across all sites."""
        return sum(s.suppressed for s in self.agent_stats.values())


async def run_loopback_async(
    records: np.ndarray,
    schema,
    forecaster="ewma",
    *,
    n_sites: int = 3,
    interval_seconds: float = 300.0,
    key_scheme: str = "dst_ip",
    value_scheme: str = "bytes",
    key_source: str = "twopass",
    t_fraction: float = 0.05,
    top_n: int = 0,
    drift_fraction: float = 0.0,
    quorum: int = 1,
    deadline_seconds: Optional[float] = None,
    chunk_records: int = 4096,
    read_timeout: float = 30.0,
    queue_maxsize: int = 64,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    recorder=None,
    complete_timeout: float = 60.0,
    **model_params,
) -> LoopbackResult:
    """Run coordinator + ``n_sites`` agents over loopback TCP; see module docs.

    ``recorder`` (when given) attaches to the coordinator's merger --
    agents keep Null recorders so their per-site counters don't collide
    in the shared registry.
    """
    merger = IntervalMerger(
        schema,
        forecaster,
        interval_seconds=interval_seconds,
        t_fraction=t_fraction,
        top_n=top_n,
        key_source=key_source,
        quorum=quorum,
        min_sites=n_sites,
        deadline_seconds=deadline_seconds,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        recorder=recorder,
        **model_params,
    )
    server = CoordinatorServer(
        merger,
        read_timeout=read_timeout,
        queue_maxsize=queue_maxsize,
    )
    await server.start()
    try:
        parts = partition_records(records, n_sites)
        stats_list = await asyncio.gather(
            *(
                run_agent(
                    part,
                    server.host,
                    server.port,
                    schema=schema,
                    site=name,
                    interval_seconds=interval_seconds,
                    key_scheme=key_scheme,
                    value_scheme=value_scheme,
                    key_source=key_source,
                    t_fraction=t_fraction,
                    drift_fraction=drift_fraction,
                    chunk_records=chunk_records,
                )
                for name, part in parts.items()
            )
        )
        complete = await server.wait_complete(timeout=complete_timeout)
    finally:
        await server.stop()
    return LoopbackResult(
        reports=list(merger.reports),
        agent_stats=dict(zip(parts.keys(), stats_list)),
        coordinator_stats=dict(merger.stats),
        site_stats=merger.site_stats(),
        sealed_through=merger.sealed_through,
        complete=complete,
    )


def run_loopback(records: np.ndarray, schema, forecaster="ewma", **kwargs):
    """Synchronous wrapper around :func:`run_loopback_async`."""
    return asyncio.run(run_loopback_async(records, schema, forecaster, **kwargs))


def run_serial_reference(
    records: np.ndarray,
    schema,
    forecaster="ewma",
    *,
    interval_seconds: float = 300.0,
    key_scheme: str = "dst_ip",
    value_scheme: str = "bytes",
    key_source: str = "twopass",
    t_fraction: float = 0.05,
    top_n: int = 0,
    **model_params,
) -> List[IntervalDetection]:
    """Single-process reference: one session over the whole trace.

    The configuration mirrors :func:`run_loopback_async` parameter for
    parameter, so a filtering-off loopback run must reproduce these
    reports bit for bit.
    """
    session = StreamingSession(
        schema,
        forecaster,
        interval_seconds=interval_seconds,
        key_scheme=key_scheme,
        value_scheme=value_scheme,
        key_source=key_source,
        t_fraction=t_fraction,
        top_n=top_n,
        **model_params,
    )
    reports = session.ingest(records)
    reports.extend(session.flush())
    return reports
