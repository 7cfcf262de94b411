"""The four end-to-end workloads: inputs, system under test, one pass.

Every workload runs the paper's detection path -- records -> interval
sketch -> forecast -> error sketch -> ``T * sqrt(F2est)`` alarms -- at a
fixed operating point with 60 s intervals and schema seed 5.  Only the
public session API is used (``StreamingSession``, ``ingest``,
``ingest_columns``, ``flush``, ``stats``, ``TemporalArchive``), so the
workloads survive refactors of the engine behind it.

Inputs come from :class:`repro.traffic.TrafficGenerator` seeded by the
benchmark seed and are then thinned to a fixed record count per interval.
The generator draws a random diurnal phase, which moves the per-interval
load by up to +-30% between seeds; fixing the count keeps the work per
interval the same for every seed, so seeds vary what the traffic contains
(addresses, byte volumes, arrival order), not how much of it there is.

Run as a script with a workload name, this module is the set-up probe:
``python workloads.py paper_stream`` imports ``repro``, loads the compiled
kernels, and builds the workload's schema, session and archive.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.archive import TemporalArchive
from repro.detection import StreamingSession
from repro.sketch import InvertibleKArySchema, KArySchema
from repro.streams import iter_interval_columns
from repro.traffic import TrafficGenerator, get_profile

INTERVAL_S = 60.0
SCHEMA_SEED = 5

#: archive_query: diff range lengths (intervals), queries per pass, how
#: many of the most frequent destinations every diff probes, and the
#: archive's byte budget in full-resolution tables.
QUERY_LENGTHS = (1, 2, 4, 8, 16, 32)
N_QUERIES = 400
N_QUERY_KEYS = 20_000
ARCHIVE_BUDGET_TABLES = 8


@dataclass(frozen=True)
class TraceSpec:
    """A generated trace: router profile scale, length, records per interval."""

    scale: float
    hours: float
    per_interval: int


#: The headline trace: the ``large`` router profile over four hours, thinned
#: to 3500 records per minute (the generator's quietest minute over 20
#: seeds held 4240).
STREAM_TRACE = TraceSpec(scale=1.0, hours=4.0, per_interval=3_500)
#: Three ``large`` routers' worth of traffic over four hours, thinned to
#: 10000 records per minute (quietest minute over 20 seeds: 12756): each
#: interval is one columnar block, big enough for the threaded kernels to
#: engage, and 240 intervals leave 12 beyond the seal latency's p95.
BULK_TRACE = TraceSpec(scale=3.0, hours=4.0, per_interval=10_000)


@dataclass(frozen=True)
class Workload:
    name: str
    trace: TraceSpec
    depth: int
    width: int
    model: str
    model_params: Dict[str, float]
    t_fraction: float
    top_n: int
    chunk_records: Optional[int]  # None: one columnar block per interval
    invertible: bool = False
    archive: bool = False

    @property
    def key_source(self) -> str:
        return "invertible" if self.invertible else "twopass"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_stream",
            trace=STREAM_TRACE, depth=5, width=32768,
            model="ewma", model_params={"alpha": 0.5},
            t_fraction=0.05, top_n=100, chunk_records=64,
        ),
        Workload(
            name="bulk_seal",
            trace=BULK_TRACE, depth=9, width=65536,
            model="nshw", model_params={"alpha": 0.5, "beta": 0.2},
            t_fraction=0.02, top_n=1000, chunk_records=None,
        ),
        Workload(
            name="invertible_stream",
            trace=STREAM_TRACE, depth=5, width=32768,
            model="ewma", model_params={"alpha": 0.5},
            t_fraction=0.05, top_n=100, chunk_records=64, invertible=True,
        ),
        Workload(
            name="archive_query",
            trace=STREAM_TRACE, depth=5, width=32768,
            model="ewma", model_params={"alpha": 0.5},
            t_fraction=0.05, top_n=100, chunk_records=4096, archive=True,
        ),
    )
}


# -- inputs -------------------------------------------------------------------


def interval_indices(records: np.ndarray) -> np.ndarray:
    """Interval index of every record, by the session's own formula."""
    return (records["timestamp"] // INTERVAL_S).astype(np.int64)


def make_trace(spec: TraceSpec, seed: int) -> np.ndarray:
    """Generate the trace for ``seed`` and thin it to ``spec.per_interval``.

    Each interval keeps a uniform random subset of exactly
    ``per_interval`` records, in time order.
    """
    profile = get_profile("large", spec.scale)
    records = TrafficGenerator(
        profile, duration=spec.hours * 3600.0, base_interval=INTERVAL_S,
        seed=seed,
    ).generate()
    idx = interval_indices(records)
    counts = np.bincount(idx - idx[0])
    if counts.min() < spec.per_interval:
        raise ValueError(
            f"seed {seed}: an interval holds {counts.min()} records, fewer "
            f"than the workload's fixed {spec.per_interval}"
        )
    rng = np.random.default_rng((seed, 0x5EED))
    order = np.lexsort((rng.random(len(records)), idx))
    starts = np.cumsum(counts) - counts
    picked = order[(starts[:, None] + np.arange(spec.per_interval)).ravel()]
    return records[np.sort(picked)]


def make_feed(w: Workload, records: np.ndarray) -> list:
    """What the session is fed: record-chunk views or columnar blocks."""
    if w.chunk_records is None:
        return list(iter_interval_columns(records, INTERVAL_S))
    step = w.chunk_records
    return [records[i : i + step] for i in range(0, len(records), step)]


def query_keys(records: np.ndarray) -> np.ndarray:
    """The trace's most frequent destinations (sorted), the diff candidates."""
    keys, counts = np.unique(records["dst_ip"], return_counts=True)
    top = np.lexsort((keys, -counts))[:N_QUERY_KEYS]
    return np.sort(keys[top]).astype(np.uint64)


def _snap(spans, lo: int, hi: int) -> Tuple[int, int]:
    picked = [(s, e) for s, e in spans if s < hi and e > lo]
    return picked[0][0], picked[-1][1]


def make_queries(archive: TemporalArchive, seed: int) -> List[tuple]:
    """``N_QUERIES`` diffs of a range against the range just before it.

    The archive snaps ranges outward to whole spans, so a candidate is kept
    only when its snapped range and snapped baseline do not overlap; the
    queries cycle through ``QUERY_LENGTHS`` and pick uniformly among the
    candidates of each length.  The span layout after a full pass depends
    only on the interval count, so the query list is the same every pass.
    """
    spans = [(s.start, s.end) for s in archive.spans]
    first, end = spans[0][0], spans[-1][1]
    by_length = {}
    for length in QUERY_LENGTHS:
        cands = []
        for lo in range(first + length, end - length + 1):
            a = _snap(spans, lo, lo + length)
            b = _snap(spans, lo - length, lo)
            if b[1] <= a[0]:
                cands.append(((lo, lo + length), (lo - length, lo)))
        by_length[length] = cands
    rng = np.random.default_rng((seed, 0xD1FF))
    queries = []
    for i in range(N_QUERIES):
        cands = by_length[QUERY_LENGTHS[i % len(QUERY_LENGTHS)]]
        queries.append(cands[int(rng.integers(len(cands)))])
    return queries


# -- system under test --------------------------------------------------------


def make_schema(w: Workload):
    cls = InvertibleKArySchema if w.invertible else KArySchema
    return cls(depth=w.depth, width=w.width, seed=SCHEMA_SEED)


def make_archive(w: Workload, schema) -> Optional[TemporalArchive]:
    if not w.archive:
        return None
    return TemporalArchive(
        schema, INTERVAL_S,
        byte_budget=ARCHIVE_BUDGET_TABLES * schema.table_bytes,
        max_folds=3, tail_intervals=8,
    )


def make_session(w: Workload, schema, archive=None) -> StreamingSession:
    return StreamingSession(
        schema, w.model, interval_seconds=INTERVAL_S,
        t_fraction=w.t_fraction, top_n=w.top_n, key_source=w.key_source,
        sink=None if archive is None else archive.ingest,
        **w.model_params,
    )


@dataclass
class PassResult:
    """Everything one pass produced and how long each part took."""

    reports: list = field(default_factory=list)   # one per sealed interval
    answers: list = field(default_factory=list)   # one report per query
    snapped: list = field(default_factory=list)   # (range_a, range_b, width)
    seal_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    ingest_s: float = 0.0
    wall_s: float = 0.0
    stats: dict = field(default_factory=dict)
    archive_stats: Optional[dict] = None
    archive: Optional[TemporalArchive] = None

    def ask(self, w: Workload, queries, keys) -> None:
        """Answer ``queries`` from this pass's archive, timing each diff."""
        clock = time.perf_counter
        for range_a, range_b in queries:
            t0 = clock()
            diff = self.archive.diff(
                range_a, range_b, t_fraction=w.t_fraction, top_n=w.top_n,
                keys=keys,
            )
            self.query_s.append(clock() - t0)
            self.answers.append(diff.report)
            self.snapped.append((diff.range_a, diff.range_b, diff.error.schema.width))


def run_pass(w: Workload, schema, feed: list, queries=(), keys=None) -> PassResult:
    """Replay ``feed`` into a fresh session, closed loop, then ask ``queries``.

    A seal sample is the duration of an ``ingest*``/``flush`` call that
    returned a report; ``ingest_s`` runs from the first record to the end
    of the final flush, ``wall_s`` to the last query answer.
    """
    archive = make_archive(w, schema)
    session = make_session(w, schema, archive)
    ingest = session.ingest if w.chunk_records else session.ingest_columns
    clock = time.perf_counter
    out = PassResult(archive=archive)
    start = clock()
    for item in feed:
        t0 = clock()
        reports = ingest(item)
        if reports:
            out.seal_s.append(clock() - t0)
            out.reports.extend(reports)
    t0 = clock()
    reports = session.flush()
    end = clock()
    if reports:
        out.seal_s.append(end - t0)
        out.reports.extend(reports)
    out.ingest_s = end - start
    out.ask(w, queries, keys)
    out.wall_s = clock() - start
    out.stats = session.stats
    if archive is not None:
        out.archive_stats = archive.stats
    return out


def setup(name: str) -> None:
    """Build everything a workload needs before its first record."""
    w = WORKLOADS[name]
    schema = make_schema(w)
    make_session(w, schema, make_archive(w, schema))


if __name__ == "__main__":
    setup(sys.argv[1])
