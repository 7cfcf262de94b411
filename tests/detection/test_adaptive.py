"""Tests for the adaptive (online-recalibrating) detector."""

import numpy as np
import pytest

from repro.detection import AdaptiveDetector
from repro.sketch import KArySchema
from repro.streams.model import KeyedUpdates

from tests.conftest import make_batches


@pytest.fixture
def schema():
    return KArySchema(depth=5, width=4096, seed=0)


class TestAdaptiveDetector:
    def test_validation(self, schema):
        with pytest.raises(ValueError):
            AdaptiveDetector(schema, window=1)
        with pytest.raises(ValueError):
            AdaptiveDetector(schema, recalibrate_every=0)
        with pytest.raises(ValueError):
            AdaptiveDetector(schema, window=5, min_history=6)

    def test_no_reports_before_first_fit(self, rng, schema):
        batches = make_batches(rng, intervals=4)
        detector = AdaptiveDetector(schema, min_history=4, window=8)
        assert list(detector.run(batches)) == []

    def test_reports_after_fit(self, rng, schema):
        batches = make_batches(rng, intervals=12)
        detector = AdaptiveDetector(
            schema, min_history=4, window=8, recalibrate_every=4
        )
        reports = list(detector.run(batches))
        assert reports
        assert all(r.error_l2 >= 0 for r in reports)

    def test_parameter_log_grows(self, rng, schema):
        batches = make_batches(rng, intervals=16)
        detector = AdaptiveDetector(
            schema, min_history=4, window=8, recalibrate_every=4
        )
        list(detector.run(batches))
        log = detector.parameter_log
        assert len(log) >= 2
        intervals = [interval for interval, _ in log]
        assert intervals == sorted(intervals)

    def test_current_parameters_are_model_kwargs(self, rng, schema):
        from repro.forecast import make_forecaster

        batches = make_batches(rng, intervals=10)
        detector = AdaptiveDetector(
            schema, model="ewma", min_history=4, window=8, recalibrate_every=5
        )
        list(detector.run(batches))
        params = detector.current_parameters
        assert params is not None
        make_forecaster("ewma", **params)  # must construct

    def test_adapts_to_regime_change(self, rng, schema):
        """After a drastic volatility change, recalibration should move
        the smoothing parameter."""
        calm = make_batches(rng, intervals=10, drift=0.0)
        # Strong deterministic drift afterwards: trend-chasing alpha wins.
        trending = make_batches(
            np.random.default_rng(5), intervals=10, drift=0.8
        )
        for i, batch in enumerate(trending):
            trending[i] = KeyedUpdates(
                index=batch.index + 10,
                keys=batch.keys,
                values=batch.values,
                duration=batch.duration,
            )
        detector = AdaptiveDetector(
            schema, model="ewma", min_history=6, window=8, recalibrate_every=5
        )
        list(detector.run(calm + trending))
        log = detector.parameter_log
        assert len(log) >= 2
        early_alpha = log[0][1]["alpha"]
        late_alpha = log[-1][1]["alpha"]
        # Trending data rewards larger alpha (chase the level).
        assert late_alpha > early_alpha

    def test_detects_spike_after_fit(self, rng, schema):
        batches = make_batches(rng, intervals=14)
        target = batches[10]
        batches[10] = KeyedUpdates(
            index=target.index,
            keys=np.concatenate([target.keys, [424242]]).astype(np.uint64),
            values=np.concatenate([target.values, [5e6]]),
            duration=target.duration,
        )
        detector = AdaptiveDetector(
            schema, model="ewma", t_fraction=0.2, min_history=4,
            window=8, recalibrate_every=4,
        )
        reports = {r.index: r for r in detector.run(batches)}
        assert 424242 in {a.key for a in reports[10].alarms}

    def test_window_models_supported(self, rng, schema):
        batches = make_batches(rng, intervals=12)
        detector = AdaptiveDetector(
            schema, model="ma", min_history=6, window=10, recalibrate_every=6
        )
        reports = list(detector.run(batches))
        assert detector.current_parameters is not None
        assert "window" in detector.current_parameters
        assert reports


class TestRecalibrationCadence:
    """Regression: the refresh schedule must count intervals since the
    last fit, not test ``batch.index % recalibrate_every`` -- the
    absolute-index rule refit on calendar multiples regardless of when
    the previous fit happened."""

    def test_gaps_between_fits_equal_recalibrate_every(self, rng, schema):
        batches = make_batches(rng, intervals=18)
        detector = AdaptiveDetector(
            schema, model="ewma", min_history=4, window=8,
            recalibrate_every=6,
        )
        list(detector.run(batches))
        fits = [interval for interval, _ in detector.parameter_log]
        assert fits[0] == 4  # first fit once min_history is banked
        assert [b - a for a, b in zip(fits, fits[1:])] == [6] * (len(fits) - 1)

    def test_cadence_independent_of_index_origin(self, rng, schema):
        """A stream whose indices start at 5 must not refit early just
        because an absolute index hits a multiple of the cadence."""
        shifted = [
            KeyedUpdates(
                index=batch.index + 5,
                keys=batch.keys,
                values=batch.values,
                duration=batch.duration,
            )
            for batch in make_batches(rng, intervals=18)
        ]
        detector = AdaptiveDetector(
            schema, model="ewma", min_history=4, window=8,
            recalibrate_every=6,
        )
        list(detector.run(shifted))
        fits = [interval for interval, _ in detector.parameter_log]
        assert fits[0] == 9  # 4 banked intervals -> fit on the 5th batch
        assert [b - a for a, b in zip(fits, fits[1:])] == [6] * (len(fits) - 1)


class TestZeroThreshold:
    def test_exact_zero_errors_never_alarm(self, schema):
        """Regression: identical intervals give Se(t) = 0 and a zero
        threshold; keys whose error is exactly zero must not alarm (the
        rule every other detector applies), not all alarm at once."""
        keys = np.array([11, 22, 33], dtype=np.uint64)
        values = np.array([100.0, 200.0, 300.0])
        batches = [
            KeyedUpdates(index=t, keys=keys, values=values, duration=300.0)
            for t in range(12)
        ]
        reports = list(AdaptiveDetector(schema, model="ma").run(batches))
        assert reports
        for report in reports:
            assert report.threshold == 0.0
            assert report.alarms == []
