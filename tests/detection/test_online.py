"""Tests for the online (future-keys) detector."""

import numpy as np
import pytest

from repro.detection import OnlineDetector
from repro.sketch import KArySchema
from repro.streams.model import KeyedUpdates

from tests.conftest import make_batches


def _with_spike(batches, interval, key=77777777, value=5e6):
    target = batches[interval]
    batches[interval] = KeyedUpdates(
        index=target.index,
        keys=np.concatenate([target.keys, [key]]).astype(np.uint64),
        values=np.concatenate([target.values, [value]]),
    )
    return batches


class TestOnlineDetector:
    def test_detects_persistent_change(self, rng):
        """A key that spikes and appears again next interval is caught."""
        batches = make_batches(rng, intervals=10)
        _with_spike(batches, 5)
        _with_spike(batches, 6)  # key recurs -> provides itself as candidate
        detector = OnlineDetector(
            KArySchema(depth=5, width=8192, seed=0), "ewma", alpha=0.5,
            t_fraction=0.2,
        )
        reports = list(detector.run(batches))
        spike = next(r for r in reports if r.index == 5)
        assert 77777777 in {a.key for a in spike.alarms}

    def test_misses_key_that_never_returns(self, rng):
        """The documented risk: a key that vanishes is not detected."""
        batches = make_batches(rng, intervals=10)
        _with_spike(batches, 5)  # appears only in interval 5
        detector = OnlineDetector(
            KArySchema(depth=5, width=8192, seed=0), "ewma", alpha=0.5,
            t_fraction=0.2,
        )
        reports = list(detector.run(batches))
        spike = next(r for r in reports if r.index == 5)
        assert 77777777 not in {a.key for a in spike.alarms}

    def test_reports_lag_one_interval(self, rng):
        batches = make_batches(rng, intervals=6)
        detector = OnlineDetector(
            KArySchema(depth=3, width=1024, seed=0), "ewma", alpha=0.5
        )
        indices = [r.index for r in detector.run(batches)]
        assert indices == [1, 2, 3, 4, 5]

    def test_last_interval_reported_without_candidates(self, rng):
        batches = make_batches(rng, intervals=4)
        detector = OnlineDetector(
            KArySchema(depth=3, width=1024, seed=0), "ewma", alpha=0.5
        )
        last = list(detector.run(batches))[-1]
        assert last.index == 3
        assert last.alarms == []

    def test_sampling_reduces_candidates(self, rng):
        batches = make_batches(rng, intervals=8)
        full = OnlineDetector(
            KArySchema(depth=5, width=8192, seed=0), "ewma", alpha=0.5,
            t_fraction=0.01, sample_rate=1.0,
        )
        sampled = OnlineDetector(
            KArySchema(depth=5, width=8192, seed=0), "ewma", alpha=0.5,
            t_fraction=0.01, sample_rate=0.1, seed=1,
        )
        n_full = sum(r.alarm_count for r in full.run(batches))
        n_sampled = sum(r.alarm_count for r in sampled.run(batches))
        assert n_sampled < n_full

    def test_validation(self):
        schema = KArySchema(depth=1, width=4)
        with pytest.raises(ValueError):
            OnlineDetector(schema, "ewma", t_fraction=-1.0)
        with pytest.raises(ValueError):
            OnlineDetector(schema, "ewma", sample_rate=0.0)
        with pytest.raises(ValueError):
            OnlineDetector(schema, "ewma", sample_rate=1.5)

    def test_back_to_back_runs_identical(self, rng):
        """Regression: run() must re-derive the sampling RNG from the seed.

        The original implementation advanced one long-lived generator, so
        a second run() over the same input subsampled *different*
        candidate keys -- silently non-reproducible reports.
        """
        batches = make_batches(rng, intervals=8)
        detector = OnlineDetector(
            KArySchema(depth=5, width=8192, seed=0), "ewma", alpha=0.5,
            t_fraction=0.01, sample_rate=0.2, seed=11,
        )
        first = list(detector.run(batches))
        second = list(detector.run(batches))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.index == b.index
            assert a.threshold == b.threshold
            assert [al.key for al in a.alarms] == [al.key for al in b.alarms]
            assert [al.estimated_error for al in a.alarms] == [
                al.estimated_error for al in b.alarms
            ]

    def test_fresh_detectors_match_reused_one(self, rng):
        """A reused detector behaves exactly like a freshly built one."""
        batches = make_batches(rng, intervals=6)

        def build():
            return OnlineDetector(
                KArySchema(depth=5, width=8192, seed=0), "ewma", alpha=0.5,
                t_fraction=0.01, sample_rate=0.3, seed=4,
            )

        reused = build()
        list(reused.run(batches))  # advance state once
        rerun = list(reused.run(batches))
        fresh = list(build().run(batches))
        assert [r.alarm_count for r in rerun] == [
            r.alarm_count for r in fresh
        ]
        assert [
            [a.key for a in r.alarms] for r in rerun
        ] == [[a.key for a in r.alarms] for r in fresh]

    def test_params_with_instance_rejected(self):
        from repro.forecast import EWMAForecaster

        with pytest.raises(ValueError, match="model_params"):
            OnlineDetector(
                KArySchema(depth=1, width=4), EWMAForecaster(0.5), alpha=0.1
            )
