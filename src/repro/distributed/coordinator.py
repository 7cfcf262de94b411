"""Coordinator: network-wide detection over per-site interval sketches.

The paper's deployment story is exactly this shape: every router (site)
sketches its own traffic, a central box COMBINEs the per-interval
sketches and runs forecasting/detection over the *network-wide* summary.
Two classes split the job:

:class:`IntervalMerger`
    The deterministic core, free of any I/O: site registry, per-interval
    contribution tracking, the quorum/deadline merge policy, COMBINE,
    the forecast step and report build (the exact arithmetic of
    :class:`~repro.detection.session.StreamingSession`'s seal, so a
    filtering-off distributed run is bit-identical to a single-process
    one), per-site counters, and KCP1 checkpoints for durability.

:class:`CoordinatorServer`
    The asyncio shell: accepts TCP connections, enforces a per-connection
    read timeout and a per-frame payload budget, verifies each agent's
    schema identity at HELLO (COMBINE across mismatched schemas would
    silently estimate garbage), and funnels decoded frames through a
    bounded queue -- when the merge loop falls behind, ``queue.put``
    blocks the readers, which stops reading sockets, which backpressures
    agents through TCP flow control.  One merge task consumes the queue,
    so the merger needs no locking.

Merge policy (late/missing sites)
---------------------------------
Interval ``t`` seals as soon as every *active* site is **accounted for**:
it contributed ``t`` (sketch or digest), or it has already contributed a
later interval (agents send in order, so ``t`` predates its traffic --
its contribution is zero), or it said BYE (clean end of stream -- zero),
or its connection was lost (its last transmitted sketch substitutes).
When ``deadline_seconds`` is set, an interval whose oldest contribution
has waited that long seals anyway once at least ``quorum`` sites have
contributed; missing sites substitute their cached sketch, and their
contributions, if they ever arrive, are counted late and dropped.
Suppressed intervals (DIGEST frames, see
:mod:`~repro.distributed.agent`) substitute the site's last transmitted
sketch and key set -- the error-bounded approximation the drift gate
bounded at the agent.
"""

from __future__ import annotations

import asyncio
import numbers
import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro.detection.session import IntervalSealer
from repro.detection.threshold import IntervalDetection
from repro.distributed.frames import (
    DEFAULT_MAX_PAYLOAD,
    FRAME_HEADER_SIZE,
    FrameError,
    read_frame,
    write_frame,
)
from repro.forecast.model_zoo import make_forecaster
from repro.sketch.base import SummaryConvention
from repro.sketch.mergeable import merge
from repro.sketch.serialization import (
    SketchDecodeError,
    _write_durably,
    checkpoint_meta,
    dumps_checkpoint,
    loads_checkpoint,
    schema_from_identity,
    schema_identity,
)
from repro.sketch.serialization import loads as sketch_loads
from repro.streams.intervals import checked_index
from repro.streams.keys import dedup_keys

_EMPTY_KEYS = np.array([], dtype=np.uint64)

_CKPT_FORMAT = "dist-coordinator"

#: Coordinator counters pre-created at zero when a recorder attaches.
_COORDINATOR_COUNTERS = (
    "repro_dist_intervals_sealed_total",
    "repro_dist_deadline_seals_total",
    "repro_dist_substituted_total",
    "repro_dist_decode_errors_total",
    "repro_dist_lost_sites_total",
)


class SiteState:
    """Per-site registry entry: caches, progress cursor, counters."""

    __slots__ = (
        "name",
        "last_sketch",
        "last_keys",
        "max_contributed",
        "departed",
        "lost",
        "last_seen",
        "frames",
        "bytes",
        "sketches",
        "digests",
        "late",
        "substituted",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.last_sketch = None
        self.last_keys = _EMPTY_KEYS
        self.max_contributed = -1
        self.departed = False
        self.lost = False
        self.last_seen = 0.0
        self.frames = 0
        self.bytes = 0
        self.sketches = 0
        self.digests = 0
        self.late = 0
        self.substituted = 0

    @property
    def active(self) -> bool:
        """Still expected to contribute (connected, pre-BYE)."""
        return not (self.departed or self.lost)

    def stats(self) -> dict:
        return {
            "frames": self.frames,
            "bytes": self.bytes,
            "sketches": self.sketches,
            "digests": self.digests,
            "late": self.late,
            "substituted": self.substituted,
            "max_contributed": self.max_contributed,
            "departed": self.departed,
            "lost": self.lost,
        }


class IntervalMerger:
    """Deterministic site registry + merge policy + network-wide detection.

    Parameters
    ----------
    schema:
        Summary schema shared by every site (verified per connection).
    forecaster:
        Forecaster instance or model-zoo name (+ ``model_params``).
    interval_seconds:
        Analysis interval length; agents must agree (checked at HELLO).
    t_fraction / top_n / key_source:
        Detection parameters, exactly as in
        :class:`~repro.detection.session.StreamingSession`.
    quorum:
        Minimum site contributions required for a *deadline* seal
        (default 1).  Irrelevant while ``deadline_seconds`` is None.
    min_sites:
        Sites that must have registered -- by HELLO, or restored from a
        checkpoint -- before anything seals (default 1).  A fleet sets it
        to its size: otherwise the first site to connect can seal
        intervals without the contributions of sites still connecting.
    deadline_seconds:
        How long the oldest pending interval may wait for stragglers
        before sealing without them (``None``, the default, waits
        forever -- the lossless mode the bit-identity guarantee needs).
    checkpoint_path / checkpoint_every:
        When both set, a KCP1 coordinator checkpoint is written
        atomically to ``checkpoint_path`` every ``checkpoint_every``
        sealed intervals (see :meth:`checkpoint_bytes`).
    recorder:
        Optional :class:`~repro.obs.recorder.PipelineRecorder` for
        per-site frame/byte/suppression counters and seal events.
    clock:
        Monotonic time source for deadline ages (injectable for tests).
    """

    def __init__(
        self,
        schema,
        forecaster,
        *,
        interval_seconds: float = 300.0,
        t_fraction: float = 0.05,
        top_n: int = 0,
        key_source: str = "twopass",
        quorum: int = 1,
        min_sites: int = 1,
        deadline_seconds: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        recorder=None,
        clock=time.monotonic,
        **model_params,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        if quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        if min_sites < 1:
            raise ValueError(f"min_sites must be >= 1, got {min_sites}")
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError(
                f"deadline_seconds must be >= 0, got {deadline_seconds}"
            )
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.schema = schema
        if isinstance(forecaster, str):
            forecaster = make_forecaster(forecaster, **model_params)
        elif model_params:
            raise ValueError(
                "model_params only apply when forecaster is given by name"
            )
        self.forecaster = forecaster
        self.interval_seconds = float(interval_seconds)
        self.t_fraction = float(t_fraction)
        self.top_n = int(top_n)
        self.key_source = key_source
        self.quorum = int(quorum)
        self.min_sites = int(min_sites)
        self.deadline_seconds = deadline_seconds
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        self._sealer = IntervalSealer(
            schema,
            forecaster,
            t_fraction=self.t_fraction,
            top_n=self.top_n,
            key_source=key_source,
            recorder=recorder,
        )
        self.recorder = self._sealer.recorder
        self.recorder.preregister(*_COORDINATOR_COUNTERS)
        self._clock = clock

        self.sites: Dict[str, SiteState] = {}
        # pending[t][site] = ("sketch", summary, keys) | ("digest", None, None)
        self.pending: Dict[int, Dict[str, tuple]] = {}
        self._first_seen: Dict[int, float] = {}
        self._sealed_through: Optional[int] = None
        self.reports: List[IntervalDetection] = []
        self.stats = {
            "frames": 0,
            "bytes": 0,
            "sketches": 0,
            "suppressed": 0,
            "late_frames": 0,
            "substituted": 0,
            "deadline_seals": 0,
            "lost_sites": 0,
            "decode_errors": 0,
            "intervals_sealed": 0,
        }

    # -- site registry -------------------------------------------------------

    def register(self, site: str) -> None:
        """Register (or re-activate) a site at HELLO time."""
        state = self.sites.get(site)
        if state is None:
            self.sites[site] = SiteState(site)
        else:
            # Reconnect: the cached sketch and progress cursor survive, so
            # a bounced agent resumes mid-stream without re-shipping.
            state.departed = False
            state.lost = False

    def _site(self, site: str) -> SiteState:
        state = self.sites.get(site)
        if state is None:
            raise ValueError(f"site {site!r} sent data before HELLO")
        return state

    @property
    def sealed_through(self) -> Optional[int]:
        """Highest interval index sealed so far (None before any seal)."""
        return self._sealed_through

    @property
    def complete(self) -> bool:
        """True when ``min_sites`` sites registered, all ended, none pending.

        Counting registrations keeps a fleet that has not assembled yet
        from counting as done when its first agent finishes early.
        """
        return (
            len(self.sites) >= self.min_sites
            and bool(self.sites)
            and not self.pending
            and all(not s.active for s in self.sites.values())
        )

    def site_stats(self) -> dict:
        """Per-site counter snapshot, keyed by site name."""
        return {name: s.stats() for name, s in sorted(self.sites.items())}

    # -- contribution events -------------------------------------------------

    def _is_late(self, interval: int) -> bool:
        return (
            self._sealed_through is not None
            and interval <= self._sealed_through
        )

    def _count_frame(self, state: SiteState, nbytes: int) -> None:
        state.frames += 1
        state.bytes += nbytes
        state.last_seen = self._clock()
        self.stats["frames"] += 1
        self.stats["bytes"] += nbytes
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_dist_frames_total", site=state.name)
            obs.count("repro_dist_bytes_total", nbytes, site=state.name)

    def _drop_late(self, state: SiteState, interval: int) -> None:
        state.late += 1
        self.stats["late_frames"] += 1
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_dist_late_frames_total", site=state.name)
            obs.event(
                "late_contribution", site=state.name, interval=interval,
                sealed_through=self._sealed_through,
            )

    def on_sketch(
        self,
        site: str,
        interval: int,
        summary,
        keys: Optional[np.ndarray] = None,
        nbytes: int = 0,
    ) -> List[IntervalDetection]:
        """One site's sealed sketch for ``interval``; returns new reports."""
        keys = (
            _EMPTY_KEYS if keys is None else SummaryConvention.as_key_array(keys)
        )
        state = self._site(site)
        self._count_frame(state, nbytes)
        state.sketches += 1
        self.stats["sketches"] += 1
        if self._is_late(interval):
            self._drop_late(state, interval)
            return []
        self.pending.setdefault(interval, {})[site] = ("sketch", summary, keys)
        self._first_seen.setdefault(interval, self._clock())
        state.max_contributed = max(state.max_contributed, interval)
        state.last_sketch = summary
        state.last_keys = keys
        return self._drain()

    def on_digest(
        self, site: str, interval: int, drift: float = 0.0, nbytes: int = 0
    ) -> List[IntervalDetection]:
        """A suppressed interval: the site's sketch stayed within budget."""
        state = self._site(site)
        self._count_frame(state, nbytes)
        state.digests += 1
        self.stats["suppressed"] += 1
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_dist_suppressed_total", site=site)
        if self._is_late(interval):
            self._drop_late(state, interval)
            return []
        self.pending.setdefault(interval, {})[site] = ("digest", None, None)
        self._first_seen.setdefault(interval, self._clock())
        state.max_contributed = max(state.max_contributed, interval)
        return self._drain()

    def on_heartbeat(self, site: str, nbytes: int = 0) -> List[IntervalDetection]:
        self._count_frame(self._site(site), nbytes)
        return []

    def on_bye(self, site: str, nbytes: int = 0) -> List[IntervalDetection]:
        """Clean end of stream: the site contributes zero from here on."""
        state = self._site(site)
        self._count_frame(state, nbytes)
        state.departed = True
        return self._drain()

    def on_lost(self, site: str, reason: str = "") -> List[IntervalDetection]:
        """Connection lost without BYE: substitute the cached sketch."""
        state = self._site(site)
        state.lost = True
        self.stats["lost_sites"] += 1
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_dist_lost_sites_total")
            obs.event("site_lost", site=site, reason=reason)
        return self._drain()

    def on_decode_error(self, site: Optional[str], reason: str = "") -> None:
        """A corrupt frame or sketch blob (typed decode error) was dropped."""
        self.stats["decode_errors"] += 1
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_dist_decode_errors_total")
            obs.event("decode_error", site=site or "?", reason=reason)

    # -- merge policy --------------------------------------------------------

    def _accounted(self, state: SiteState, interval: int) -> bool:
        # In-order shipping makes "contributed anything >= t" proof that
        # the site has nothing (or exactly its recorded contribution)
        # for t; BYE and lost sites resolve by substitution rules.
        return not state.active or state.max_contributed >= interval

    def _next_to_seal(self) -> int:
        t_min = min(self.pending)
        if self._sealed_through is None:
            return t_min
        return min(t_min, self._sealed_through + 1)

    def _drain(self) -> List[IntervalDetection]:
        """Seal every interval the policy allows, in index order.

        Gap intervals between sealed ones (possible when site traffic
        ranges are disjoint) seal as empty, keeping the forecast series
        evenly spaced exactly as a single-process session would.
        Nothing seals while fewer than ``min_sites`` sites have
        registered.
        """
        reports: List[IntervalDetection] = []
        if len(self.sites) < self.min_sites:
            return reports
        while self.pending:
            t = self._next_to_seal()
            if all(self._accounted(s, t) for s in self.sites.values()):
                reports.extend(self._seal(t))
                continue
            if self.deadline_seconds is None:
                break
            t_min = min(self.pending)
            age = self._clock() - self._first_seen[t_min]
            if (
                age >= self.deadline_seconds
                and len(self.pending[t_min]) >= self.quorum
            ):
                reports.extend(self._seal(t, forced=True))
                continue
            break
        return reports

    def check_deadlines(self) -> List[IntervalDetection]:
        """Periodic tick: seal anything whose straggler deadline expired."""
        if not self.pending:
            return []
        return self._drain()

    def _substitute(self, state: SiteState, summaries, key_arrays) -> None:
        if state.last_sketch is not None:
            summaries.append(state.last_sketch)
            if len(state.last_keys):
                key_arrays.append(state.last_keys)
        state.substituted += 1
        self.stats["substituted"] += 1
        if self.recorder.enabled:
            self.recorder.count("repro_dist_substituted_total")

    def _seal(self, t: int, forced: bool = False) -> List[IntervalDetection]:
        contribs = self.pending.pop(t, {})
        self._first_seen.pop(t, None)
        summaries = []
        key_arrays = []
        # Deterministic site order: float64 COMBINE of integral updates
        # is exact regardless, but determinism costs nothing and makes
        # runs reproducible even with non-integral value schemes.
        for name in sorted(self.sites):
            state = self.sites[name]
            entry = contribs.get(name)
            if entry is not None:
                kind, summary, keys = entry
                if kind == "sketch":
                    summaries.append(summary)
                    if len(keys):
                        key_arrays.append(keys)
                else:
                    self._substitute(state, summaries, key_arrays)
            elif state.departed:
                continue  # clean end of stream: zero contribution
            elif state.lost or (forced and state.active):
                self._substitute(state, summaries, key_arrays)
            # else: t predates the site's traffic -- zero contribution
        if forced:
            self.stats["deadline_seals"] += 1
            if self.recorder.enabled:
                self.recorder.count("repro_dist_deadline_seals_total")
                self.recorder.event(
                    "deadline_seal", interval=t,
                    contributions=len(contribs), sites=len(self.sites),
                )
        # merge() always allocates a fresh summary -- contributions and
        # site caches are never aliased into the forecaster's state.
        merged = merge(summaries) if summaries else self.schema.empty()
        keys = (
            dedup_keys(np.concatenate(key_arrays))
            if key_arrays
            else _EMPTY_KEYS
        )
        return self._step_and_report(t, merged, keys)

    def _step_and_report(self, t, merged, keys) -> List[IntervalDetection]:
        report = self._sealer.seal(merged, keys, t)
        self._sealed_through = t
        self.stats["intervals_sealed"] += 1
        self.recorder.count("repro_dist_intervals_sealed_total")
        reports = [] if report is None else [report]
        self.reports.extend(reports)
        if (
            self.checkpoint_path is not None
            and self.checkpoint_every > 0
            and self.stats["intervals_sealed"] % self.checkpoint_every == 0
        ):
            self.save_checkpoint(self.checkpoint_path)
        return reports

    # -- durability (KCP1) ---------------------------------------------------

    def checkpoint_bytes(self) -> bytes:
        """Serialize coordinator state as one KCP1 container.

        Captures the forecaster recursion, the seal cursor and every
        site's cache/progress -- everything needed for a restarted
        coordinator to keep sealing *future* intervals consistently.
        Intervals pending (unsealed) at crash time are not captured;
        agents re-ship them on reconnect (their contributions for
        already-sealed intervals are dropped as late, so replays are
        harmless).
        """
        from repro.detection.checkpoint import _forecaster_spec

        meta = {
            "format": _CKPT_FORMAT,
            "schema": schema_identity(self.schema),
            "forecaster": _forecaster_spec(self.forecaster),
            "config": {
                "interval_seconds": self.interval_seconds,
                "t_fraction": self.t_fraction,
                "top_n": self.top_n,
                "key_source": self.key_source,
                "quorum": self.quorum,
                "deadline_seconds": self.deadline_seconds,
                "checkpoint_every": self.checkpoint_every,
            },
            "cursor": {
                "sealed_through": self._sealed_through,
                "intervals_sealed": self.stats["intervals_sealed"],
            },
        }
        body = {
            "forecaster": self.forecaster.get_state(),
            "sites": {
                name: {
                    "last_sketch": s.last_sketch,
                    "last_keys": np.asarray(s.last_keys, dtype=np.uint64),
                    "max_contributed": s.max_contributed,
                    "departed": s.departed,
                    "lost": s.lost,
                }
                for name, s in self.sites.items()
            },
        }
        return dumps_checkpoint(meta, body)

    def save_checkpoint(self, path) -> None:
        """Write :meth:`checkpoint_bytes` to ``path`` (atomic rename)."""
        data = self.checkpoint_bytes()
        _write_durably(path, data)
        obs = self.recorder
        if obs.enabled:
            obs.count("repro_checkpoints_written_total")
            obs.event(
                "checkpoint_written", path=os.fspath(path), bytes=len(data),
                sealed_through=self._sealed_through,
            )


def restore_merger(
    data: bytes,
    schema=None,
    recorder=None,
    clock=time.monotonic,
) -> IntervalMerger:
    """Rebuild an :class:`IntervalMerger` from :meth:`checkpoint_bytes`.

    ``schema``, when given, is verified against the checkpointed identity
    and attached (skipping hash-table rebuilds).  Sites restore with
    their caches and progress cursors but flagged ``lost`` until they
    re-HELLO -- a restarted coordinator must not block its first seal on
    agents that died with it.
    """
    peek = checkpoint_meta(data)
    if peek.get("format") != _CKPT_FORMAT:
        raise ValueError(
            f"not a coordinator checkpoint (format={peek.get('format')!r})"
        )
    from repro.detection.checkpoint import FORECASTER_CLASSES

    schema = schema_from_identity(peek["schema"], schema=schema)
    meta, body = loads_checkpoint(data, schema=schema)
    fc_spec = meta["forecaster"]
    fc_cls = FORECASTER_CLASSES.get(fc_spec["class"])
    if fc_cls is None:
        raise ValueError(f"unknown forecaster class {fc_spec['class']!r}")
    forecaster = fc_cls(**fc_spec["config"])
    forecaster.set_state(body["forecaster"])
    config = meta["config"]
    merger = IntervalMerger(
        schema,
        forecaster,
        interval_seconds=config["interval_seconds"],
        t_fraction=config["t_fraction"],
        top_n=config["top_n"],
        key_source=config["key_source"],
        quorum=config["quorum"],
        deadline_seconds=config["deadline_seconds"],
        checkpoint_every=config["checkpoint_every"],
        recorder=recorder,
        clock=clock,
    )
    cursor = meta["cursor"]
    merger._sealed_through = (
        None
        if cursor["sealed_through"] is None
        else int(cursor["sealed_through"])
    )
    merger.stats["intervals_sealed"] = int(cursor["intervals_sealed"])
    for name, saved in body["sites"].items():
        state = SiteState(name)
        state.last_sketch = saved["last_sketch"]
        state.last_keys = np.asarray(saved["last_keys"], dtype=np.uint64)
        state.max_contributed = int(saved["max_contributed"])
        state.departed = bool(saved["departed"])
        state.lost = True if not state.departed else False
        merger.sites[name] = state
    return merger


def load_merger_checkpoint(path, schema=None, recorder=None) -> IntervalMerger:
    """Read a coordinator checkpoint file and restore the merger."""
    with open(path, "rb") as fh:
        return restore_merger(fh.read(), schema=schema, recorder=recorder)


class CoordinatorServer:
    """Asyncio TCP shell around an :class:`IntervalMerger`.

    One reader task per connection, one merge task for the whole server.
    Readers validate HELLO (schema identity, interval length) and then
    forward decoded frames into :attr:`_queue`; the bounded queue is the
    backpressure valve -- a full queue blocks the reader coroutine, which
    stops draining its socket, which stalls the agent via TCP flow
    control.  All merger access happens on the merge task, so the
    deterministic core stays single-threaded and lock-free.

    Parameters
    ----------
    merger:
        The :class:`IntervalMerger` holding all detection state.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start` -- the loopback harness relies on this).
    read_timeout:
        Per-connection idle budget in seconds.  A connection that sends
        nothing (not even a heartbeat) for this long is declared lost:
        the socket closes and the merger substitutes the site's cached
        sketch rather than stalling every other site's seals forever.
    max_payload:
        Per-frame payload budget handed to :func:`read_frame`.
    queue_maxsize:
        Bound on the frame queue (the backpressure knob).
    deadline_tick:
        How often the merge loop wakes to run
        :meth:`IntervalMerger.check_deadlines` while the queue is idle.
    on_report:
        Optional callback invoked (on the merge task) with each new
        :class:`~repro.detection.threshold.IntervalDetection`.
    """

    def __init__(
        self,
        merger: IntervalMerger,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        read_timeout: float = 30.0,
        max_payload: Optional[int] = None,
        queue_maxsize: int = 64,
        deadline_tick: float = 0.25,
        on_report=None,
    ) -> None:
        if read_timeout <= 0:
            raise ValueError(f"read_timeout must be > 0, got {read_timeout}")
        if queue_maxsize < 1:
            raise ValueError(
                f"queue_maxsize must be >= 1, got {queue_maxsize}"
            )
        self.merger = merger
        self.host = host
        self.port = port
        self.read_timeout = float(read_timeout)
        self.max_payload = (
            DEFAULT_MAX_PAYLOAD if max_payload is None else int(max_payload)
        )
        self.deadline_tick = float(deadline_tick)
        self.on_report = on_report
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_maxsize)
        self._server: Optional[asyncio.base_events.Server] = None
        self._merge_task: Optional[asyncio.Task] = None
        self._stopping = False

    async def start(self) -> None:
        """Bind, start accepting connections, launch the merge loop."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._merge_task = asyncio.create_task(self._merge_loop())

    async def stop(self) -> None:
        """Stop accepting, drain the queue, and land the merge task."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopping = True
        if self._merge_task is not None:
            await self._merge_task
            self._merge_task = None

    async def wait_complete(self, timeout: float = 60.0) -> bool:
        """Wait until every site ended and every interval sealed.

        Polls :attr:`IntervalMerger.complete` (plus an empty frame
        queue), which also waits for the merger's ``min_sites`` sites to
        register; returns False on timeout instead of raising so callers
        can dump diagnostics before failing.  If the merge task died (a
        seal raised), its exception is raised here: nothing would ever
        complete.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            task = self._merge_task
            if task is not None and task.done():
                task.result()
            if self._queue.empty() and self.merger.complete:
                return True
            await asyncio.sleep(0.02)
        return False

    # -- connection handling -------------------------------------------------

    async def _read(self, reader):
        return await asyncio.wait_for(
            read_frame(reader, self.max_payload), self.read_timeout
        )

    async def _handle_connection(self, reader, writer) -> None:
        site: Optional[str] = None
        clean_exit = False
        reason = "connection closed without BYE"
        try:
            frame = await self._read(reader)
            if frame is None:
                clean_exit = True  # probed and left before HELLO
                return
            kind, payload = frame
            if kind != "hello":
                await write_frame(
                    writer,
                    "error",
                    {"reason": f"expected HELLO, got {kind.upper()}"},
                )
                clean_exit = True
                return
            refusal = self._vet_hello(payload)
            if refusal is not None:
                await write_frame(writer, "error", {"reason": refusal})
                clean_exit = True
                return
            site = str(payload["site"])
            await self._queue.put(("hello", site, payload, 0))
            await write_frame(writer, "ack", {"site": site})
            while True:
                frame = await self._read(reader)
                if frame is None:
                    return  # EOF without BYE -> lost (finally block)
                kind, payload = frame
                nbytes = FRAME_HEADER_SIZE + _payload_size(payload)
                await self._queue.put((kind, site, payload, nbytes))
                if kind == "bye":
                    clean_exit = True
                    return
        except asyncio.TimeoutError:
            reason = f"no frame for {self.read_timeout}s (read timeout)"
        except FrameError as exc:
            reason = f"corrupt frame: {exc}"
            self.merger.on_decode_error(site, reason)
        except (ConnectionError, OSError) as exc:
            reason = f"transport error: {exc}"
        finally:
            if site is not None and not clean_exit:
                await self._queue.put(("gone", site, {"reason": reason}, 0))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _vet_hello(self, payload: dict) -> Optional[str]:
        """Validate a HELLO payload; returns a refusal reason or None."""
        site = payload.get("site")
        if not site or not isinstance(site, str):
            return "HELLO must carry a non-empty site name"
        try:
            schema_from_identity(payload["schema"], schema=self.merger.schema)
        except (KeyError, TypeError, ValueError) as exc:
            return f"schema mismatch: {exc}"
        interval = payload.get("interval_seconds")
        if interval is not None and (
            isinstance(interval, bool)
            or not isinstance(interval, numbers.Real)
            or interval != self.merger.interval_seconds
        ):
            return (
                f"interval mismatch: agent uses {interval!r}s, coordinator "
                f"uses {self.merger.interval_seconds}s"
            )
        return None

    # -- merge loop ----------------------------------------------------------

    async def _merge_loop(self) -> None:
        while True:
            try:
                item = await asyncio.wait_for(
                    self._queue.get(), timeout=self.deadline_tick
                )
            except asyncio.TimeoutError:
                if self._stopping:
                    return
                self._emit(self.merger.check_deadlines())
                continue
            try:
                self._emit(self._dispatch(*item))
            finally:
                self._queue.task_done()

    def _dispatch(self, kind, site, payload, nbytes=0):
        merger = self.merger
        if kind == "hello":
            merger.register(site)
            return []
        if kind == "sketch":
            try:
                summary = sketch_loads(
                    payload["sketch"], schema=merger.schema
                )
                interval = checked_index(payload["interval"], "frame interval")
                keys = payload.get("keys")
                if keys is not None:
                    keys = SummaryConvention.as_key_array(keys)
            except (SketchDecodeError, KeyError, TypeError, ValueError) as exc:
                merger.on_decode_error(site, str(exc))
                return []
            return merger.on_sketch(
                site, interval, summary, keys=keys, nbytes=nbytes
            )
        if kind == "digest":
            try:
                interval = checked_index(payload["interval"], "frame interval")
                drift = float(payload.get("drift", 0.0))
            except (KeyError, TypeError, ValueError) as exc:
                merger.on_decode_error(site, str(exc))
                return []
            return merger.on_digest(site, interval, drift=drift, nbytes=nbytes)
        if kind == "heartbeat":
            return merger.on_heartbeat(site, nbytes=nbytes)
        if kind == "bye":
            return merger.on_bye(site, nbytes=nbytes)
        if kind == "gone":
            return merger.on_lost(site, reason=payload.get("reason", ""))
        merger.on_decode_error(site, f"unexpected frame type {kind!r}")
        return []

    def _emit(self, reports) -> None:
        if self.on_report is not None:
            for report in reports:
                self.on_report(report)


def _payload_size(payload: dict) -> int:
    """Approximate a decoded payload's wire size for byte accounting."""
    total = 0
    for value in payload.values():
        if isinstance(value, (bytes, bytearray)):
            total += len(value)
        elif isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, str):
            total += len(value)
        else:
            total += 8
    return total
