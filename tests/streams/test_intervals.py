"""Tests for fixed and randomized interval slicing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    IntervalSlicer,
    IntervalStream,
    RandomizedIntervalSlicer,
    interval_bounds,
    iter_interval_chunks,
    make_records,
    slice_by_interval,
)
from repro.streams.intervals import interval_edge, interval_index


class TestIntervalBounds:
    def test_even_division(self):
        bounds = interval_bounds(900, 300)
        assert bounds == [(0, 300), (300, 600), (600, 900)]

    def test_truncated_tail(self):
        bounds = interval_bounds(700, 300)
        assert bounds[-1] == (600, 700)

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_bounds(100, 0)


class TestSliceByInterval:
    def test_basic_slicing(self):
        records = make_records([10.0, 100.0, 310.0, 620.0], [1, 2, 3, 4], [1] * 4)
        slices = dict(slice_by_interval(records, 300.0))
        assert sorted(slices) == [0, 1, 2]
        assert slices[0]["dst_ip"].tolist() == [1, 2]
        assert slices[1]["dst_ip"].tolist() == [3]
        assert slices[2]["dst_ip"].tolist() == [4]

    def test_empty_middle_interval_yielded(self):
        records = make_records([10.0, 910.0], [1, 2], [1, 1])
        slices = dict(slice_by_interval(records, 300.0))
        assert sorted(slices) == [0, 1, 2, 3]
        assert len(slices[1]) == 0
        assert len(slices[2]) == 0

    def test_empty_trace(self):
        records = make_records([], [], [])
        assert list(slice_by_interval(records, 300.0)) == []

    def test_boundary_timestamp_goes_to_next_interval(self):
        records = make_records([300.0], [1], [1])
        slices = dict(slice_by_interval(records, 300.0))
        assert len(slices[0]) == 0
        assert len(slices[1]) == 1

    def test_every_record_appears_exactly_once(self, rng):
        timestamps = np.sort(rng.uniform(0, 5000, size=500))
        records = make_records(timestamps, np.arange(500), np.ones(500))
        total = sum(len(chunk) for _, chunk in slice_by_interval(records, 300.0))
        assert total == 500

    @given(st.floats(min_value=1.0, max_value=1000.0))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, interval):
        """Slicing partitions the trace for any interval length."""
        rng = np.random.default_rng(0)
        timestamps = np.sort(rng.uniform(0, 3000, size=200))
        records = make_records(timestamps, np.arange(200), np.ones(200))
        seen = []
        for _, chunk in slice_by_interval(records, interval):
            seen.extend(chunk["dst_ip"].tolist())
        assert sorted(seen) == sorted(records["dst_ip"].tolist())

    def test_validation(self):
        records = make_records([1.0], [1], [1])
        with pytest.raises(ValueError):
            list(slice_by_interval(records, 0))


class TestIntervalSlicer:
    def test_duration_constant(self):
        slicer = IntervalSlicer(60.0)
        assert slicer.duration_of(0) == 60.0
        assert slicer.duration_of(99) == 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalSlicer(-1.0)


class TestRandomizedSlicer:
    def test_durations_vary_and_average_near_mean(self):
        slicer = RandomizedIntervalSlicer(300.0, seed=1)
        durations = [slicer.duration_of(i) for i in range(200)]
        assert len(set(durations)) > 50
        assert np.mean(durations) == pytest.approx(300.0, rel=0.2)

    def test_durations_bounded(self):
        slicer = RandomizedIntervalSlicer(
            300.0, seed=2, min_fraction=0.2, max_factor=3.0
        )
        durations = [slicer.duration_of(i) for i in range(500)]
        assert min(durations) >= 0.2 * 300.0 - 1e-9
        assert max(durations) <= 3.0 * 300.0 + 1e-9

    def test_partition_property(self, rng):
        timestamps = np.sort(rng.uniform(0, 7200, size=1000))
        records = make_records(timestamps, np.arange(1000), np.ones(1000))
        slicer = RandomizedIntervalSlicer(300.0, seed=3)
        total = sum(len(chunk) for _, chunk in slicer.slices(records))
        assert total == 1000

    def test_deterministic_for_seed(self):
        a = RandomizedIntervalSlicer(300.0, seed=5)
        b = RandomizedIntervalSlicer(300.0, seed=5)
        assert [a.duration_of(i) for i in range(50)] == [
            b.duration_of(i) for i in range(50)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomizedIntervalSlicer(0.0)

    @pytest.mark.parametrize(
        "mean, horizon",
        [
            (1.0, 179.91), (1.0, 1000.0),
            (59.97, 179.91), (59.97, 10 * 86400.0),
            (300.0, 1000.0), (300.0, 10 * 86400.0),
            (300.1, 179.91), (300.1, 10 * 86400.0),
        ],
    )
    def test_edges_equal_one_draw_at_a_time(self, mean, horizon):
        """The lengths are drawn in one call; the edges are those of the
        reference loop that draws, clips and sums one length at a time
        until the running sum reaches the horizon."""
        for seed in (0, 1, 7, 123):
            rng = np.random.default_rng(seed)
            lengths, total = [], 0.0
            while total < horizon:
                length = float(np.clip(rng.exponential(mean), 0.2 * mean, 3.0 * mean))
                lengths.append(length)
                total += length
            edges = 10.0 + np.concatenate([[0.0], np.cumsum(lengths)])
            slicer = RandomizedIntervalSlicer(
                mean, seed=seed, start=10.0, horizon=horizon
            )
            assert np.array_equal(slicer._edges, edges)
            assert slicer._horizon == len(lengths)

    @pytest.mark.parametrize(
        "kwargs", [{"min_fraction": 0.0}, {"horizon": 0.0}, {"horizon": -5.0}]
    )
    def test_draw_bounds_validated(self, kwargs):
        with pytest.raises(ValueError):
            RandomizedIntervalSlicer(300.0, **kwargs)


class TestBoundaryAgreement:
    """Regression: ``interval_bounds`` and ``slice_by_interval`` must
    derive every edge by the same multiplication (``start + i * len``).
    An accumulated running sum drifts in the last ulps for non-dyadic
    lengths, so edge-exact records landed in different intervals
    depending on which function the caller consulted."""

    def test_bounds_edges_are_multiplicative(self):
        interval = 300.1  # not representable exactly: accumulation drifts
        bounds = interval_bounds(interval * 3000, interval)
        for i, (lo, _) in enumerate(bounds):
            assert lo == interval_edge(i, interval)

    def test_edge_exact_record_lands_where_bounds_say(self):
        interval = 300.1
        drift = 0.0
        for _ in range(2500):
            drift += interval
        product = interval_edge(2500, interval)
        assert drift != product  # the accumulated sum really does drift
        records = make_records([product], [9], [1])
        slices = {
            index: chunk
            for index, chunk in slice_by_interval(records, interval)
            if len(chunk)
        }
        # The record sits exactly on edge 2500, so it opens interval 2500
        # -- same interval the bounds list assigns it to.
        assert list(slices) == [2500]
        lo, hi = interval_bounds(product + 1.0, interval)[2500]
        assert lo <= product < hi

    def test_edge_exact_records_across_many_edges(self):
        interval = 0.1  # classic repeating-fraction float
        indices = [1, 7, 10, 100, 1000, 4999]
        timestamps = [interval_edge(i, interval) for i in indices]
        records = make_records(timestamps, range(len(indices)), [1] * len(indices))
        landed = {
            index
            for index, chunk in slice_by_interval(records, interval)
            if len(chunk)
        }
        assert landed == set(indices)


class TestBeforeStart:
    """Regression: records predating ``start`` used to vanish silently."""

    def test_raises_by_default_with_count(self):
        records = make_records([5.0, 7.0, 150.0], [1, 2, 3], [1, 1, 1])
        with pytest.raises(ValueError, match="2 record"):
            list(slice_by_interval(records, 300.0, start=10.0))

    def test_drop_mode_counts_into_stats(self):
        records = make_records([5.0, 7.0, 150.0], [1, 2, 3], [1, 1, 1])
        stats = {}
        slices = dict(
            slice_by_interval(
                records, 300.0, start=10.0,
                on_before_start="drop", stats=stats,
            )
        )
        assert stats["dropped_before_start"] == 2
        assert slices[0]["dst_ip"].tolist() == [3]

    def test_whole_trace_before_start(self):
        records = make_records([1.0, 2.0], [1, 2], [1, 1])
        stats = {}
        slices = list(
            slice_by_interval(
                records, 300.0, start=100.0,
                on_before_start="drop", stats=stats,
            )
        )
        assert slices == []
        assert stats["dropped_before_start"] == 2

    def test_invalid_mode_rejected(self):
        records = make_records([1.0], [1], [1])
        with pytest.raises(ValueError, match="on_before_start"):
            list(slice_by_interval(records, 300.0, on_before_start="ignore"))

    def test_slicer_accumulates_dropped_across_calls(self):
        slicer = IntervalSlicer(300.0, start=10.0, on_before_start="drop")
        for _ in range(2):
            list(slicer.slices(make_records([1.0, 20.0], [1, 2], [1, 1])))
        assert slicer.dropped_before_start == 2

    def test_slicer_raises_by_default(self):
        slicer = IntervalSlicer(300.0, start=10.0)
        with pytest.raises(ValueError, match="predate"):
            list(slicer.slices(make_records([1.0], [1], [1])))

    def test_randomized_slicer_same_contract(self):
        records = make_records([1.0, 500.0], [1, 2], [1, 1])
        strict = RandomizedIntervalSlicer(300.0, seed=1, start=10.0)
        with pytest.raises(ValueError, match="predate"):
            list(strict.slices(records))
        lenient = RandomizedIntervalSlicer(
            300.0, seed=1, start=10.0, on_before_start="drop"
        )
        total = sum(len(chunk) for _, chunk in lenient.slices(records))
        assert total == 1
        assert lenient.dropped_before_start == 1


class TestNonFiniteTimestamps:
    """Every slicer rejects a NaN or infinite timestamp before yielding.

    Unchecked, ``iter_interval_chunks`` puts a NaN record into the next
    interval's chunk and a ``+inf`` one into a chunk with finite records,
    and ``slice_by_interval`` keeps a NaN inside an interval."""

    SLICERS = {
        "slice_by_interval": lambda r: slice_by_interval(r, 60.0),
        "IntervalSlicer": lambda r: IntervalSlicer(60.0).slices(r),
        "RandomizedIntervalSlicer": lambda r: RandomizedIntervalSlicer(
            60.0, seed=1, horizon=1000.0
        ).slices(r),
        "IntervalStream": lambda r: iter(IntervalStream(r, 60.0)),
        "iter_interval_chunks": lambda r: iter_interval_chunks(r, 60.0),
    }

    @pytest.mark.parametrize("slicer", sorted(SLICERS))
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_before_any_slice(self, slicer, position, bad):
        timestamps = np.insert([0.0, 30.0, 61.0, 90.0], position, bad)
        records = make_records(
            timestamps=timestamps,
            dst_ips=np.arange(5),
            byte_counts=np.full(5, 100),
        )
        slices = self.SLICERS[slicer](records)
        with pytest.raises(ValueError, match="finite"):
            next(slices)


class TestAdversarialFloatPartition:
    """Property: slicing partitions every record into exactly one
    interval, and that interval's multiplicative edges bracket the
    record -- even for edge-exact, ulp-adjacent and drift-accumulated
    timestamps."""

    @staticmethod
    def _assert_partition(timestamps, interval, start=0.0):
        timestamps = np.sort(np.asarray(timestamps, dtype=np.float64))
        records = make_records(
            timestamps, np.arange(len(timestamps)), np.ones(len(timestamps))
        )
        seen = []
        for index, chunk in slice_by_interval(records, interval, start):
            lo = interval_edge(index, interval, start)
            hi = interval_edge(index + 1, interval, start)
            for t in chunk["timestamp"].tolist():
                assert lo <= t < hi
            seen.extend(chunk["dst_ip"].tolist())
        assert sorted(seen) == list(range(len(timestamps)))

    @given(
        interval=st.one_of(
            st.sampled_from([0.1, 1 / 3, 300.1, 299.9999999999999]),
            st.floats(min_value=1e-3, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
        ),
        indices=st.lists(
            st.integers(min_value=0, max_value=20000),
            min_size=1, max_size=40,
        ),
        start=st.sampled_from([0.0, 17.3, 1e6]),
    )
    @settings(max_examples=120, deadline=None)
    def test_edge_and_neighbor_timestamps(self, interval, indices, start):
        timestamps = []
        for i in indices:
            edge = interval_edge(i, interval, start)
            timestamps.append(edge)
            timestamps.append(np.nextafter(edge, np.inf))
            below = np.nextafter(edge, -np.inf)
            if below >= start:
                timestamps.append(below)
        self._assert_partition(timestamps, interval, start)

    def test_accumulated_drift_grid(self):
        # Timestamps produced by the *accumulating* derivation -- the one
        # the slicer must not use internally -- still partition cleanly.
        interval = 300.1
        t, timestamps = 0.0, []
        for _ in range(3000):
            timestamps.append(t)
            t += interval
        self._assert_partition(timestamps, interval)

    def test_uniform_random_with_edge_mixins(self, rng):
        interval = 1 / 3
        edges = [interval_edge(i, interval) for i in range(0, 9000, 91)]
        timestamps = np.concatenate(
            [rng.uniform(0, 3000, 500), np.asarray(edges)]
        )
        self._assert_partition(timestamps, interval)


class TestOneIndexFormula:
    """Every ingestion path maps a timestamp to the interval its edges
    bracket.

    At non-dyadic lengths ``t // len`` and ``floor(t / len)`` round
    across edges (at 59.97 s, ``interval_edge(7) // 59.97 == 6``), so
    before one helper owned the formula a record on an edge landed in
    different intervals depending on the path that ingested it.
    """

    #: Edges whose floored quotient lands one interval low, and the
    #: float just below each edge, which belongs to the interval before.
    EDGES = {59.97: [7, 11, 14, 35], 300.1: [5, 9, 13, 31]}

    @pytest.mark.parametrize("interval", sorted(EDGES))
    def test_paths_agree_on_edge_records(self, interval):
        from repro.archive import TemporalArchive
        from repro.detection import StreamingSession
        from repro.sketch import KArySchema
        from repro.streams import iter_interval_columns

        timestamps, expected = [], []
        for i in self.EDGES[interval]:
            edge = interval_edge(i, interval)
            assert edge // interval != i  # the old formula's blind spot
            timestamps += [float(np.nextafter(edge, -np.inf)), edge]
            expected += [i - 1, i]
        keys = np.arange(1, len(timestamps) + 1)
        records = make_records(timestamps, keys, [1] * len(keys))
        want = dict(zip(keys.tolist(), expected))

        def landed(pairs):
            return {int(k): int(index) for index, ks in pairs for k in ks}

        assert landed(
            (item.index, item.keys) for item in IntervalStream(records, interval)
        ) == want
        assert landed(
            (block.index, block.keys)
            for block in iter_interval_columns(records, interval)
        ) == want
        chunks = [
            set(chunk["dst_ip"].tolist())
            for chunk in iter_interval_chunks(records, interval)
        ]
        groups = {}
        for key, index in want.items():
            groups.setdefault(index, set()).add(key)
        assert sorted(map(sorted, chunks)) == sorted(map(sorted, groups.values()))
        schema = KArySchema(depth=3, width=64, seed=1)
        archive = TemporalArchive(schema, interval)
        assert [archive.index_of(t) for t in timestamps] == expected
        assert [interval_index(t, interval) for t in timestamps] == expected
        assert interval_index(np.asarray(timestamps), interval).tolist() == expected
        # The session: one record per call (the two-scalar check) and
        # the whole trace in one call (the per-record index array).
        for feed in ([records[i : i + 1] for i in range(len(records))], [records]):
            sealed = []
            session = StreamingSession(
                schema, "ewma", interval_seconds=interval, alpha=0.5,
                sink=lambda observed, ks, index: sealed.append((index, ks)),
            )
            for chunk in feed:
                session.ingest(chunk)
            session.flush()
            assert landed(sealed) == want

    @given(
        interval=st.floats(min_value=1e-3, max_value=1e4,
                           allow_nan=False, allow_infinity=False),
        index=st.integers(min_value=0, max_value=10**9),
        offset=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_index_is_bracketed_by_edges(self, interval, index, offset):
        t = interval_edge(index, interval)
        t = float(np.nextafter(t, np.inf * offset)) if offset else t
        got = interval_index(t, interval)
        assert interval_edge(got, interval) <= t < interval_edge(got + 1, interval)
        assert interval_index(np.asarray([t]), interval).tolist() == [got]


def _landed(pairs):
    """``{record id: interval}`` from ``(index, ids)`` pairs."""
    return {int(k): int(index) for index, ids in pairs for k in ids}


class TestRecordOrder:
    """NetFlow lists flows in export order, not the start-time order the
    intervals are binned on: a trace and any permutation of it put every
    record in the same interval through every slicer, both chunkers and
    one ``ingest`` call.  Timestamps sit on edges and one ulp either side
    at the non-dyadic lengths 59.97 s and 300.1 s, with empty gap
    intervals between them and records before ``start``, which the
    slicers drop.  Before the slicers sorted, they cut a shuffled trace at
    edges found by binary search in unsorted timestamps."""

    RANDOM_SEED = 3

    @classmethod
    def _randomized(cls, interval, **kwargs):
        # Edges drawn well past the last timestamp the test makes.
        return RandomizedIntervalSlicer(
            interval, seed=cls.RANDOM_SEED, horizon=100 * interval, **kwargs
        )

    @staticmethod
    def _slices(slices):
        return [(int(index), sorted(chunk["dst_ip"].tolist()))
                for index, chunk in slices]

    @staticmethod
    def _session(records, interval):
        from repro.detection import StreamingSession
        from repro.sketch import KArySchema

        sealed = []
        session = StreamingSession(
            KArySchema(depth=2, width=64, seed=1), "ewma",
            interval_seconds=interval, alpha=0.5,
            sink=lambda observed, keys, index: sealed.append(
                (index, sorted(keys.tolist()))
            ),
        )
        session.ingest(records)
        session.flush()
        return sealed

    def _paths(self, interval):
        """Each path as ``records -> (landed, what else must not move)``."""
        from repro.streams import iter_interval_columns

        def sliced(make):
            def run(records):
                slicer = make()
                slices = self._slices(slicer.slices(records))
                return _landed(slices), (slices, slicer.dropped_before_start)
            return run

        def stats_sliced(records):
            stats = {}
            slices = self._slices(
                slice_by_interval(records, interval, on_before_start="drop",
                                  stats=stats)
            )
            return _landed(slices), (slices, stats)

        def streamed(records):
            stream = IntervalStream(
                records, slicer=IntervalSlicer(interval, on_before_start="drop")
            )
            batches = [(b.index, sorted(b.keys.tolist())) for b in stream]
            return _landed(batches), batches

        def chunked(records):
            chunks = [
                (interval_index(float(c["timestamp"][0]), interval),
                 c["dst_ip"].tolist())
                for c in iter_interval_chunks(records, interval, chunk_records=3)
            ]
            return _landed(chunks), None

        def columns(records):
            blocks = iter_interval_columns(records, interval, chunk_records=3)
            return _landed((b.index, b.keys) for b in blocks), None

        def ingested(records):
            sealed = self._session(records, interval)
            return _landed(sealed), sealed

        return {
            "slice_by_interval": stats_sliced,
            "IntervalSlicer": sliced(
                lambda: IntervalSlicer(interval, on_before_start="drop")
            ),
            "RandomizedIntervalSlicer": sliced(
                lambda: self._randomized(interval, on_before_start="drop")
            ),
            "IntervalStream": streamed,
            "iter_interval_chunks": chunked,
            "iter_interval_columns": columns,
            "StreamingSession.ingest": ingested,
        }

    PATHS = [
        "IntervalSlicer", "IntervalStream", "RandomizedIntervalSlicer",
        "StreamingSession.ingest", "iter_interval_chunks",
        "iter_interval_columns", "slice_by_interval",
    ]

    @pytest.mark.parametrize("path", PATHS)
    @given(
        interval=st.sampled_from([59.97, 300.1]),
        edges=st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from([-1, 0, 1]),
                      st.booleans()),
            min_size=1, max_size=25,
        ),
        before=st.lists(st.sampled_from([0, 1, 2]), max_size=3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_permutation_lands_alike(
        self, path, interval, edges, before, data
    ):
        # Fixed edges, or the randomized slicer's drawn ones, nudged by an ulp.
        drawn = self._randomized(interval)._edges
        timestamps = []
        for index, ulps, random_edge in edges:
            edge = float(drawn[index]) if random_edge else interval_edge(
                index, interval
            )
            timestamps.append(
                float(np.nextafter(edge, ulps * np.inf)) if ulps else edge
            )
        timestamps += [
            [float(np.nextafter(0.0, -np.inf)), -interval, -0.5 * interval][k]
            for k in before
        ]
        timestamps = np.sort(timestamps)
        n = len(timestamps)
        trace = make_records(timestamps, np.arange(1, n + 1), np.ones(n))
        shuffled = trace[np.asarray(data.draw(st.permutations(range(n))))]

        run = self._paths(interval)[path]
        landed, rest = run(trace)
        assert run(shuffled) == (landed, rest)
        if path != "RandomizedIntervalSlicer":
            expected = {
                i: interval_index(t, interval)
                for i, t in enumerate(timestamps.tolist(), start=1)
                if t >= 0 or path in ("iter_interval_chunks",
                                      "iter_interval_columns",
                                      "StreamingSession.ingest")
            }
            assert landed == expected
