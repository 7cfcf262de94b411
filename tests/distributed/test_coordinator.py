"""IntervalMerger unit tests: merge policy, counters, durability.

These drive the deterministic core directly -- no sockets, no event
loop, fake clock -- so every quorum/deadline/substitution path is
exercised synchronously.
"""

import numpy as np
import pytest

from repro.distributed import partition_records, run_serial_reference
from repro.distributed.agent import LocalSketcher
from repro.distributed.coordinator import (
    CoordinatorServer,
    IntervalMerger,
    restore_merger,
)
from repro.sketch import KArySchema
from repro.sketch.mergeable import merge
from repro.streams import make_records


@pytest.fixture
def schema():
    return KArySchema(depth=3, width=256, seed=21)


class _FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now


def _sketch(schema, rng, keys=None):
    summary = schema.empty()
    if keys is None:
        keys = rng.integers(0, 5000, 40).astype(np.uint64)
    values = np.full(len(keys), 100.0)
    summary.update_batch(np.asarray(keys, dtype=np.uint64), values)
    return summary, np.unique(np.asarray(keys, dtype=np.uint64))


def _merger(schema, **kwargs):
    kwargs.setdefault("clock", _FakeClock())
    return IntervalMerger(schema, "ewma", t_fraction=0.05, **kwargs)


class TestSealPolicy:
    def test_waits_for_every_active_site(self, schema, rng):
        merger = _merger(schema)
        merger.register("a")
        merger.register("b")
        s, keys = _sketch(schema, rng)
        merger.on_sketch("a", 0, s, keys)
        assert merger.sealed_through is None  # b outstanding
        s2, keys2 = _sketch(schema, rng)
        merger.on_sketch("b", 0, s2, keys2)
        assert merger.sealed_through == 0
        assert merger.stats["intervals_sealed"] == 1

    def test_later_contribution_accounts_for_earlier_interval(
        self, schema, rng
    ):
        """Agents send in order: b sending t=1 proves b has nothing for t=0."""
        merger = _merger(schema)
        merger.register("a")
        merger.register("b")
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        merger.on_sketch("a", 1, *_sketch(schema, rng))
        assert merger.sealed_through is None
        merger.on_sketch("b", 1, *_sketch(schema, rng))
        # b skipped interval 0 (its traffic starts later): both seal.
        assert merger.sealed_through == 1
        assert merger.stats["intervals_sealed"] == 2

    def test_bye_releases_pending_seals(self, schema, rng):
        merger = _merger(schema)
        merger.register("a")
        merger.register("b")
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        assert merger.sealed_through is None
        merger.on_bye("b")
        assert merger.sealed_through == 0
        assert not merger.complete  # a is still active
        merger.on_bye("a")
        assert merger.complete

    def test_gap_intervals_seal_empty(self, schema, rng):
        merger = _merger(schema)
        merger.register("a")
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        merger.on_sketch("a", 4, *_sketch(schema, rng))
        # 1..3 sealed as empty gaps; the forecast series stays evenly
        # spaced exactly as a single-process session's would.
        assert merger.sealed_through == 4
        assert merger.stats["intervals_sealed"] == 5

    def test_late_contribution_dropped_and_counted(self, schema, rng):
        merger = _merger(schema)
        merger.register("a")
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        merger.on_sketch("a", 1, *_sketch(schema, rng))
        sealed = merger.stats["intervals_sealed"]
        merger.on_sketch("a", 0, *_sketch(schema, rng))  # replay
        assert merger.stats["late_frames"] == 1
        assert merger.stats["intervals_sealed"] == sealed
        assert merger.site_stats()["a"]["late"] == 1

    def test_nothing_seals_before_min_sites_register(self, schema, rng):
        """One site ships its whole trace, BYE included, before the other
        site's HELLO: sealing then would drop the late site's traffic."""
        interval = 300.0
        n = 2400
        records = make_records(
            timestamps=np.sort(rng.uniform(0, 8 * interval, n)),
            dst_ips=rng.integers(0, 300, n),
            byte_counts=rng.integers(40, 1500, n),
        )
        shipped = {}
        for site, part in partition_records(records, 2).items():
            sketcher = LocalSketcher(schema, interval_seconds=interval)
            sketcher.ingest(part)
            sketcher.flush()
            shipped[site] = sketcher.drain()
        (early, early_out), (late, late_out) = shipped.items()

        merger = _merger(schema, interval_seconds=interval, min_sites=2)
        merger.register(early)
        for sealed in early_out:
            merger.on_sketch(early, *sealed)
        merger.on_bye(early)
        assert merger.sealed_through is None and not merger.reports
        merger.register(late)
        for sealed in late_out:
            merger.on_sketch(late, *sealed)
        merger.on_bye(late)
        assert merger.complete

        reference = run_serial_reference(
            records, schema, "ewma", interval_seconds=interval,
            t_fraction=0.05,
        )
        assert len(merger.reports) == len(reference) == 7
        for ours, ref in zip(merger.reports, reference):
            assert ours.index == ref.index
            assert ours.threshold == ref.threshold
            assert ours.error_l2 == ref.error_l2
            assert [(a.key, a.estimated_error) for a in ours.alarms] == [
                (a.key, a.estimated_error) for a in ref.alarms
            ]

    def test_restored_sites_count_toward_min_sites(self, schema, rng):
        merger = _merger(schema, min_sites=2)
        merger.register("a")
        merger.register("b")
        for t in range(2):
            merger.on_sketch("a", t, *_sketch(schema, rng))
            merger.on_sketch("b", t, *_sketch(schema, rng))
        restored = restore_merger(merger.checkpoint_bytes(), schema=schema)
        restored.min_sites = 2
        restored.register("a")  # b died with the old coordinator
        restored.on_sketch("a", 2, *_sketch(schema, rng))
        assert restored.sealed_through == 2


class TestSubstitution:
    def test_digest_substitutes_cached_sketch(self, schema, rng):
        merger = _merger(schema)
        merger.register("a")
        s, keys = _sketch(schema, rng, keys=[1, 2, 3])
        merger.on_sketch("a", 0, s, keys)
        merger.on_digest("a", 1, drift=0.01)
        assert merger.stats["suppressed"] == 1
        assert merger.stats["substituted"] == 1
        assert merger.sealed_through == 1
        # Interval 1's merged summary was the cached interval-0 sketch:
        # EWMA saw identical consecutive observations, so the error
        # summary is exactly the drift the gate bounded (here: reuse).
        assert merger.site_stats()["a"]["digests"] == 1

    def test_lost_site_substitutes_cache(self, schema, rng):
        merger = _merger(schema)
        merger.register("a")
        merger.register("b")
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        merger.on_sketch("b", 0, *_sketch(schema, rng))
        merger.on_sketch("a", 1, *_sketch(schema, rng))
        merger.on_lost("b", reason="read timeout")
        # b's cached interval-0 sketch stands in for interval 1.
        assert merger.sealed_through == 1
        assert merger.stats["lost_sites"] == 1
        assert merger.stats["substituted"] == 1
        assert merger.site_stats()["b"]["substituted"] == 1

    def test_reconnect_reactivates_lost_site(self, schema, rng):
        merger = _merger(schema)
        merger.register("a")
        merger.on_lost("a")
        merger.register("a")
        assert merger.sites["a"].active


class TestDeadlineQuorum:
    def test_deadline_seal_with_quorum(self, schema, rng):
        clock = _FakeClock()
        merger = _merger(
            schema, deadline_seconds=10.0, quorum=1, clock=clock
        )
        merger.register("a")
        merger.register("b")
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        assert merger.sealed_through is None
        clock.now += 5.0
        merger.check_deadlines()
        assert merger.sealed_through is None  # deadline not reached
        clock.now += 6.0
        merger.check_deadlines()
        assert merger.sealed_through == 0
        assert merger.stats["deadline_seals"] == 1
        # b had no cache yet -> nothing to substitute, but the straggler
        # slot is still tallied.
        assert merger.stats["substituted"] == 1

    def test_quorum_blocks_underpopulated_seal(self, schema, rng):
        clock = _FakeClock()
        merger = _merger(
            schema, deadline_seconds=10.0, quorum=2, clock=clock
        )
        for site in ("a", "b", "c"):
            merger.register(site)
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        clock.now += 100.0
        merger.check_deadlines()
        assert merger.sealed_through is None  # 1 contribution < quorum 2
        merger.on_sketch("b", 0, *_sketch(schema, rng))
        merger.check_deadlines()
        assert merger.sealed_through == 0

    def test_no_deadline_waits_forever(self, schema, rng):
        clock = _FakeClock()
        merger = _merger(schema, clock=clock)
        merger.register("a")
        merger.register("b")
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        clock.now += 1e9
        merger.check_deadlines()
        assert merger.sealed_through is None


class TestNetworkWideDetection:
    def test_merged_seal_equals_combined_contributions(self, schema, rng):
        """The sealed observation is the COMBINE of site contributions."""
        clock = _FakeClock()
        merger = _merger(schema, clock=clock)
        merger.register("a")
        merger.register("b")
        sa, ka = _sketch(schema, rng, keys=[10, 20, 30])
        sb, kb = _sketch(schema, rng, keys=[30, 40])
        expected = merge([sa, sb])
        merger.on_sketch("a", 0, sa, ka)
        merger.on_sketch("b", 0, sb, kb)
        retained = merger.forecaster.get_state()
        # EWMA retains the observed summary verbatim after one step.
        found = [
            np.asarray(v.table)
            for v in (
                retained.values() if isinstance(retained, dict) else [retained]
            )
            if hasattr(v, "table")
        ]
        assert any(
            np.array_equal(t, np.asarray(expected.table)) for t in found
        )

    def test_decode_error_counter(self, schema):
        merger = _merger(schema)
        merger.on_decode_error("a", "bad blob")
        assert merger.stats["decode_errors"] == 1


class TestFrameIntervals:
    """SKETCH and DIGEST frames carry an integer interval or are dropped."""

    @pytest.mark.parametrize("kind", ["sketch", "digest"])
    @pytest.mark.parametrize(
        "interval",
        [float("inf"), float("nan"), 2.7, "7", True, None],
        ids=["inf", "nan", "2.7", "str7", "True", "None"],
    )
    def test_non_integer_interval_is_a_decode_error(
        self, schema, rng, kind, interval
    ):
        from repro.sketch.serialization import dumps

        merger = _merger(schema)
        merger.register("a")
        server = CoordinatorServer(merger)
        payload = {"interval": interval}
        if kind == "sketch":
            summary, keys = _sketch(schema, rng)
            payload.update(sketch=dumps(summary), keys=keys)
        assert server._dispatch(kind, "a", payload) == []
        assert merger.stats["decode_errors"] == 1
        assert merger.stats["intervals_sealed"] == 0
        assert merger.sealed_through is None

    @pytest.mark.parametrize("interval", [3, np.int64(3)])
    def test_integer_interval_is_accepted(self, schema, interval):
        merger = _merger(schema)
        merger.register("a")
        server = CoordinatorServer(merger)
        server._dispatch("digest", "a", {"interval": interval})
        assert merger.stats["decode_errors"] == 0
        assert merger.sealed_through == 3


class TestFrameKeys:
    """A SKETCH frame's keys field is vetted inside the decode guard."""

    BAD_KEYS = ["abc", ["x"], [[1, 2], [3, 4]], [1.7, 2.2], [-1]]

    @pytest.mark.parametrize(
        "keys", BAD_KEYS, ids=["str", "str-list", "2-D", "float", "negative"]
    )
    def test_bad_keys_are_a_decode_error(self, schema, rng, keys):
        from repro.sketch.serialization import dumps

        merger = _merger(schema)
        merger.register("a")
        server = CoordinatorServer(merger)
        summary, _ = _sketch(schema, rng)
        payload = {"interval": 0, "sketch": dumps(summary), "keys": keys}
        assert server._dispatch("sketch", "a", payload) == []
        assert merger.stats["decode_errors"] == 1
        assert merger.stats["sketches"] == 0
        assert merger.stats["intervals_sealed"] == 0
        assert merger.sealed_through is None

    def test_started_server_seals_after_a_bad_frame(self, schema, rng):
        import asyncio

        from repro.sketch.serialization import dumps

        merger = _merger(schema)
        merger.register("a")
        summary, keys = _sketch(schema, rng)

        async def run():
            server = CoordinatorServer(merger, deadline_tick=0.01)
            await server.start()
            try:
                for frame_keys in self.BAD_KEYS + [keys]:
                    payload = {
                        "interval": 0, "sketch": dumps(summary),
                        "keys": frame_keys,
                    }
                    await server._queue.put(("sketch", "a", payload, 0))
                await asyncio.wait_for(server._queue.join(), timeout=10.0)
            finally:
                await server.stop()

        asyncio.run(run())
        assert merger.stats["decode_errors"] == len(self.BAD_KEYS)
        assert merger.stats["intervals_sealed"] == 1
        assert merger.sealed_through == 0


class TestMergeTaskFailure:
    def test_wait_complete_raises_when_a_seal_raises(self, schema, rng):
        """A plain k-ary schema cannot recover invertible keys: the first
        seal past warm-up raises on the merge task, and ``wait_complete``
        raises it instead of polling for a completion that cannot come."""
        import asyncio

        from repro.sketch.serialization import dumps

        merger = _merger(schema, key_source="invertible")
        merger.register("a")

        async def run():
            server = CoordinatorServer(merger, deadline_tick=0.01)
            await server.start()
            try:
                for interval in range(3):
                    summary, keys = _sketch(schema, rng)
                    payload = {
                        "interval": interval, "sketch": dumps(summary),
                        "keys": keys,
                    }
                    await server._queue.put(("sketch", "a", payload, 0))
                await server._queue.put(("bye", "a", {}, 0))
                with pytest.raises(TypeError, match="recover_candidates"):
                    await server.wait_complete(timeout=30.0)
            finally:
                # Landing the dead merge task raises its exception again.
                with pytest.raises(TypeError, match="recover_candidates"):
                    await server.stop()

        asyncio.run(run())
        assert merger.stats["intervals_sealed"] == 1


class TestDurability:
    def test_checkpoint_roundtrip(self, schema, rng):
        merger = _merger(schema)
        merger.register("a")
        merger.register("b")
        for t in range(4):
            merger.on_sketch("a", t, *_sketch(schema, rng))
            merger.on_sketch("b", t, *_sketch(schema, rng))
        data = merger.checkpoint_bytes()
        restored = restore_merger(data, schema=schema)
        assert restored.sealed_through == 3
        assert restored.stats["intervals_sealed"] == 4
        assert set(restored.sites) == {"a", "b"}
        # Caches survive: the restored coordinator can substitute.
        assert restored.sites["a"].last_sketch is not None
        assert restored.sites["a"].max_contributed == 3
        # Until they re-HELLO, crashed-with-us sites must not block seals.
        assert not restored.sites["a"].active
        assert restored.forecaster.get_config() == merger.forecaster.get_config()

    def test_restored_merger_continues_identically(self, schema, rng):
        """Reports after restore match the uninterrupted coordinator's."""
        contributions = [
            (t, _sketch(schema, rng)) for t in range(8)
        ]
        straight = _merger(schema)
        straight.register("a")
        reports_straight = []
        for t, (s, keys) in contributions:
            reports_straight.extend(merge_copy(straight, "a", t, s, keys))

        resumed = _merger(schema)
        resumed.register("a")
        reports_resumed = []
        for t, (s, keys) in contributions[:4]:
            reports_resumed.extend(merge_copy(resumed, "a", t, s, keys))
        restored = restore_merger(resumed.checkpoint_bytes(), schema=schema)
        restored.register("a")
        for t, (s, keys) in contributions[4:]:
            reports_resumed.extend(merge_copy(restored, "a", t, s, keys))

        assert len(reports_straight) == len(reports_resumed)
        for x, y in zip(reports_straight, reports_resumed):
            assert x.index == y.index
            assert x.threshold == y.threshold
            assert x.error_l2 == y.error_l2
            assert [(a.key, a.estimated_error) for a in x.alarms] == [
                (a.key, a.estimated_error) for a in y.alarms
            ]

    def test_wrong_format_rejected(self, schema):
        from repro.sketch.serialization import dumps_checkpoint

        bogus = dumps_checkpoint({"format": "something-else"}, {})
        with pytest.raises(ValueError, match="coordinator checkpoint"):
            restore_merger(bogus)

    def test_auto_checkpoint_every_n_seals(self, schema, rng, tmp_path):
        path = tmp_path / "coord.kcp"
        merger = _merger(
            schema, checkpoint_path=str(path), checkpoint_every=2
        )
        merger.register("a")
        merger.on_sketch("a", 0, *_sketch(schema, rng))
        assert not path.exists()
        merger.on_sketch("a", 1, *_sketch(schema, rng))
        assert path.exists()
        restored = restore_merger(path.read_bytes(), schema=schema)
        assert restored.sealed_through == 1


def merge_copy(merger, site, t, summary, keys):
    """Feed a COPY so both runs see independent summary objects."""
    dup = merge([summary])
    return merger.on_sketch(site, t, dup, np.array(keys, dtype=np.uint64))
