"""End-to-end distributed detection over loopback TCP.

The acceptance bar for the distributed tier:

* filtering OFF -> coordinator reports bit-identical to a single-process
  session over the concatenated traffic;
* filtering ON over a low-drift trace -> transmitted bytes drop by at
  least 30% while every injected change is still detected (recall 1.0).
"""

import asyncio

import numpy as np
import pytest

from repro.distributed import (
    partition_records,
    run_loopback,
    run_serial_reference,
)
from repro.distributed.agent import run_agent
from repro.distributed.coordinator import CoordinatorServer, IntervalMerger
from repro.distributed.frames import encode_frame, read_frame
from repro.sketch import KArySchema
from repro.streams import make_records

from tests.detection.oracle import assert_reports_identical

INTERVAL = 300.0
N_SITES = 3


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=1024, seed=77)


@pytest.fixture
def random_trace(rng):
    """12 intervals of iid traffic -- the worst case for filtering,
    the generic case for bit-identity."""
    n = 9000
    ts = np.sort(rng.uniform(0, 12 * INTERVAL, n))
    dst = rng.integers(0, 600, n).astype(np.uint32)
    byts = rng.integers(40, 1500, n).astype(np.uint64)
    return make_records(ts, dst, byts)


CHANGE_KEY = 1040
CHANGE_INTERVAL = 8


def _low_drift_trace():
    """12 intervals of EXACTLY repeating traffic + one injected change.

    Every interval replays the same 198 records (66 keys x 3), and 198
    is a multiple of the site count, so after round-robin partitioning
    each site's per-interval sketch is constant -- zero local drift.
    The one change: CHANGE_KEY's bytes spike in CHANGE_INTERVAL.
    """
    per = 198
    intervals = 12
    ts = np.concatenate(
        [
            t * INTERVAL + np.arange(per) * (INTERVAL / (per + 1))
            for t in range(intervals)
        ]
    )
    keys = np.tile(1000 + (np.arange(per) % 66), intervals).astype(np.uint32)
    byts = np.tile(500.0 + (np.arange(per) % 66) * 7.0, intervals)
    change = (keys == CHANGE_KEY) & (
        (ts >= CHANGE_INTERVAL * INTERVAL)
        & (ts < (CHANGE_INTERVAL + 1) * INTERVAL)
    )
    assert change.sum() > 0
    byts = byts + np.where(change, 5e5, 0.0)
    return make_records(ts, keys, byts.astype(np.uint64))


class TestPartition:
    def test_round_robin_covers_everything(self, random_trace):
        parts = partition_records(random_trace, 4)
        assert len(parts) == 4
        assert sum(len(p) for p in parts.values()) == len(random_trace)
        for part in parts.values():
            assert np.all(np.diff(part["timestamp"]) >= 0)

    def test_invalid_site_count(self, random_trace):
        with pytest.raises(ValueError, match="n_sites"):
            partition_records(random_trace, 0)


class TestBitIdentity:
    def test_filtering_off_is_bit_identical(self, schema, random_trace):
        reference = run_serial_reference(
            random_trace, schema, "ewma",
            interval_seconds=INTERVAL, t_fraction=0.05, top_n=10,
        )
        result = run_loopback(
            random_trace, schema, "ewma",
            n_sites=N_SITES, interval_seconds=INTERVAL,
            t_fraction=0.05, top_n=10, drift_fraction=0.0,
            chunk_records=701,  # deliberately not interval-aligned
        )
        assert result.complete
        assert result.coordinator_stats["suppressed"] == 0
        assert len(result.reports) == len(reference)
        for ours, ref in zip(result.reports, reference):
            assert ours.index == ref.index
            assert ours.threshold == ref.threshold
            assert ours.error_l2 == ref.error_l2
            assert np.array_equal(ours.top_keys, ref.top_keys)
            assert np.array_equal(ours.top_errors, ref.top_errors)
            assert [(a.key, a.estimated_error) for a in ours.alarms] == [
                (a.key, a.estimated_error) for a in ref.alarms
            ]

    def test_time_shuffled_trace_gives_the_sorted_reports(
        self, schema, random_trace, rng
    ):
        """Agents take records in any order (NetFlow exports a flow when
        it ends): each site's share is cut into interval-aligned chunks."""
        kwargs = dict(
            n_sites=N_SITES, interval_seconds=INTERVAL, t_fraction=0.05,
            top_n=10, chunk_records=701,
        )
        ordered = run_loopback(random_trace, schema, "ewma", **kwargs)
        shuffled = run_loopback(
            random_trace[rng.permutation(len(random_trace))], schema, "ewma",
            **kwargs,
        )
        assert ordered.complete and shuffled.complete
        assert len(ordered.reports) == 11
        assert_reports_identical(shuffled.reports, ordered.reports)

    def test_site_count_does_not_change_reports(self, schema, random_trace):
        one = run_loopback(
            random_trace, schema, "ewma", n_sites=1,
            interval_seconds=INTERVAL, t_fraction=0.05,
        )
        five = run_loopback(
            random_trace, schema, "ewma", n_sites=5,
            interval_seconds=INTERVAL, t_fraction=0.05,
        )
        assert len(one.reports) == len(five.reports)
        for a, b in zip(one.reports, five.reports):
            assert a.error_l2 == b.error_l2
            assert [al.key for al in a.alarms] == [al.key for al in b.alarms]


class TestCommunicationFiltering:
    def test_bytes_drop_with_full_recall(self, schema):
        trace = _low_drift_trace()
        kwargs = dict(
            n_sites=N_SITES, interval_seconds=INTERVAL,
            t_fraction=0.05, top_n=5, chunk_records=66,
        )
        off = run_loopback(trace, schema, "ewma", drift_fraction=0.0, **kwargs)
        on = run_loopback(trace, schema, "ewma", drift_fraction=0.5, **kwargs)
        assert off.complete and on.complete

        # Suppression really happened, and the coordinator tallied it.
        assert on.suppressed > 0
        assert on.coordinator_stats["suppressed"] == on.suppressed
        assert on.coordinator_stats["substituted"] >= on.suppressed

        # Acceptance: >= 30% fewer bytes on the wire.
        assert on.sketch_bytes_sent <= 0.7 * off.sketch_bytes_sent

        # Recall 1.0: the injected change still raises its alarm.
        def found(reports):
            return any(
                any(alarm.key == CHANGE_KEY for alarm in r.alarms)
                for r in reports
                if r.index == CHANGE_INTERVAL
            )

        assert found(off.reports)
        assert found(on.reports)

    def test_zero_drift_intervals_are_suppressed_exactly(self, schema):
        """On the constant trace, all but first/change-adjacent intervals
        suppress -- the drift is exactly zero, under any budget."""
        trace = _low_drift_trace()
        result = run_loopback(
            trace, schema, "ewma",
            n_sites=N_SITES, interval_seconds=INTERVAL,
            t_fraction=0.05, drift_fraction=0.1, chunk_records=66,
        )
        # Each site ships interval 0 (nothing cached), the change
        # interval and the drop back down; everything else suppresses.
        for stats in result.agent_stats.values():
            assert stats.suppressed >= 7
            assert stats.sketches_sent <= 5


class TestFaultPaths:
    def _start(self, schema, **server_kwargs):
        merger = IntervalMerger(
            schema, "ewma", interval_seconds=INTERVAL, t_fraction=0.05
        )
        server = CoordinatorServer(merger, **server_kwargs)
        return merger, server

    def test_schema_mismatch_refused(self, schema, random_trace):
        async def run():
            merger, server = self._start(schema)
            await server.start()
            try:
                other = KArySchema(depth=5, width=2048, seed=77)
                with pytest.raises(ConnectionError, match="refused"):
                    await run_agent(
                        random_trace[:100], server.host, server.port,
                        schema=other, site="bad",
                        interval_seconds=INTERVAL,
                    )
                assert "bad" not in merger.sites
            finally:
                await server.stop()

        asyncio.run(run())

    def test_interval_mismatch_refused(self, schema, random_trace):
        async def run():
            merger, server = self._start(schema)
            await server.start()
            try:
                with pytest.raises(ConnectionError, match="interval"):
                    await run_agent(
                        random_trace[:100], server.host, server.port,
                        schema=schema, site="bad",
                        interval_seconds=INTERVAL * 2,
                    )
            finally:
                await server.stop()

        asyncio.run(run())

    #: HELLO ``interval_seconds`` values that are not the coordinator's
    #: length as a real number.
    BAD_INTERVALS = ["abc", [1], True, float("nan"), 10**400]

    def test_malformed_interval_refused_with_a_reason(self, schema, caplog):
        """A HELLO whose interval is not a number gets an ERROR frame, as
        an interval mismatch does, and the server still ACKs the next
        valid HELLO.  It used to raise inside the connection callback, so
        the agent read EOF and asyncio logged an unhandled exception."""
        from repro.sketch.serialization import schema_identity

        async def hello(server, interval):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                encode_frame(
                    "hello",
                    {
                        "site": "picky",
                        "schema": schema_identity(schema),
                        "interval_seconds": interval,
                    },
                )
            )
            await writer.drain()
            frame = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            writer.close()
            await writer.wait_closed()
            return frame

        async def run():
            merger, server = self._start(schema)
            await server.start()
            try:
                for interval in self.BAD_INTERVALS:
                    kind, payload = await hello(server, interval)
                    assert kind == "error", interval
                    assert "interval mismatch" in payload["reason"]
                assert "picky" not in merger.sites
                assert (await hello(server, INTERVAL))[0] == "ack"
            finally:
                await server.stop()

        with caplog.at_level("ERROR", logger="asyncio"):
            asyncio.run(run())
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_disconnect_without_bye_marks_site_lost(self, schema):
        from repro.sketch.serialization import schema_identity

        async def run():
            merger, server = self._start(schema)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    encode_frame(
                        "hello",
                        {
                            "site": "flaky",
                            "schema": schema_identity(schema),
                            "interval_seconds": INTERVAL,
                        },
                    )
                )
                await writer.drain()
                assert (await read_frame(reader))[0] == "ack"
                writer.close()  # vanish without BYE
                await writer.wait_closed()
                for _ in range(100):
                    if merger.stats["lost_sites"]:
                        break
                    await asyncio.sleep(0.02)
                assert merger.stats["lost_sites"] == 1
                assert not merger.sites["flaky"].active
            finally:
                await server.stop()

        asyncio.run(run())

    def test_read_timeout_marks_site_lost(self, schema):
        from repro.sketch.serialization import schema_identity

        async def run():
            merger, server = self._start(schema, read_timeout=0.2)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    encode_frame(
                        "hello",
                        {
                            "site": "silent",
                            "schema": schema_identity(schema),
                            "interval_seconds": INTERVAL,
                        },
                    )
                )
                await writer.drain()
                assert (await read_frame(reader))[0] == "ack"
                # Send nothing: the per-connection read timeout fires.
                for _ in range(200):
                    if merger.stats["lost_sites"]:
                        break
                    await asyncio.sleep(0.02)
                assert merger.stats["lost_sites"] == 1
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_corrupt_frame_counted_and_connection_dropped(self, schema):
        from repro.sketch.serialization import schema_identity

        async def run():
            merger, server = self._start(schema)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    encode_frame(
                        "hello",
                        {
                            "site": "noisy",
                            "schema": schema_identity(schema),
                            "interval_seconds": INTERVAL,
                        },
                    )
                )
                await writer.drain()
                assert (await read_frame(reader))[0] == "ack"
                writer.write(b"NOT A FRAME AT ALL")
                await writer.drain()
                for _ in range(100):
                    if merger.stats["decode_errors"]:
                        break
                    await asyncio.sleep(0.02)
                assert merger.stats["decode_errors"] == 1
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())
