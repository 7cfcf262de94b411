"""Tests for the alarm threshold rule."""

import numpy as np
import pytest

from repro.detection import Alarm, alarm_threshold, alarms_for_interval
from repro.sketch import DictVector, KArySchema


class TestAlarmThreshold:
    def test_scales_with_l2(self):
        vec = DictVector({1: 3.0, 2: 4.0})  # L2 = 5
        assert alarm_threshold(vec, 0.1) == pytest.approx(0.5)

    def test_zero_fraction(self):
        vec = DictVector({1: 3.0})
        assert alarm_threshold(vec, 0.0) == 0.0

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            alarm_threshold(DictVector(), -0.1)

    def test_negative_f2_clamped(self):
        """A sketch error summary can report slightly negative F2."""
        schema = KArySchema(depth=1, width=4, seed=0)
        sketch = schema.empty()
        # Construct a table whose estimator goes negative: uniform mass.
        sketch.update_batch([0, 1, 2, 3, 4, 5, 6, 7], [1.0] * 8)
        threshold = alarm_threshold(sketch, 0.5)
        assert threshold >= 0.0


class TestAlarmsForInterval:
    def test_exact_detection(self):
        vec = DictVector({1: 100.0, 2: -90.0, 3: 1.0, 4: 0.5})
        alarms = alarms_for_interval(vec, np.array([1, 2, 3, 4]), 0.5, interval=7)
        keys = {a.key for a in alarms}
        assert keys == {1, 2}  # threshold = 0.5 * ~134.5
        for alarm in alarms:
            assert alarm.interval == 7
            assert abs(alarm.estimated_error) >= alarm.threshold

    def test_negative_errors_alarm_by_magnitude(self):
        vec = DictVector({1: -100.0})
        alarms = alarms_for_interval(vec, np.array([1]), 0.5)
        assert len(alarms) == 1
        assert alarms[0].estimated_error == pytest.approx(-100.0)

    def test_duplicate_candidates_collapsed(self):
        vec = DictVector({1: 100.0})
        alarms = alarms_for_interval(vec, np.array([1, 1, 1]), 0.1)
        assert len(alarms) == 1

    def test_empty_candidates(self):
        assert alarms_for_interval(DictVector({1: 5.0}), np.array([]), 0.1) == []

    def test_works_on_sketch(self, rng):
        schema = KArySchema(depth=5, width=4096, seed=1)
        keys = rng.integers(0, 2**32, 5000, dtype=np.uint64)
        values = rng.normal(0, 10.0, 5000)
        # One genuinely large key.
        keys = np.concatenate([keys, np.array([42], dtype=np.uint64)])
        values = np.concatenate([values, [5000.0]])
        sketch = schema.from_items(keys, values)
        alarms = alarms_for_interval(sketch, np.unique(keys), 0.5)
        assert 42 in {a.key for a in alarms}

    def test_magnitude(self):
        alarm = Alarm(interval=0, key=1, estimated_error=-10.0, threshold=5.0)
        assert alarm.magnitude == pytest.approx(2.0)

    def test_magnitude_zero_threshold(self):
        alarm = Alarm(interval=0, key=1, estimated_error=1.0, threshold=0.0)
        assert alarm.magnitude == float("inf")


class TestZeroThresholdEdges:
    """The T=0 degenerate cases: 0/0 magnitude and exact-zero errors."""

    def test_magnitude_zero_over_zero_is_not_inf(self):
        # A zero error at a zero threshold sits exactly at it -- the old
        # inf contradicted the ">= 1.0" contract in spirit and made
        # downstream magnitude-ranking meaningless.
        alarm = Alarm(interval=0, key=1, estimated_error=0.0, threshold=0.0)
        assert alarm.magnitude == 1.0

    def test_zero_fraction_skips_exact_zero_errors(self):
        vec = DictVector({1: 100.0, 2: 0.0})
        alarms = alarms_for_interval(vec, np.array([1, 2, 3]), 0.0)
        # Keys 2 (explicit zero) and 3 (absent) have exactly zero error:
        # no change signal, no alarm -- even with T = 0.
        assert {a.key for a in alarms} == {1}

    def test_zero_fraction_report_skips_exact_zero_errors(self):
        from repro.detection import build_interval_report

        vec = DictVector({1: 100.0, 2: 0.0})
        report = build_interval_report(
            vec, np.array([1, 2, 3], dtype=np.uint64),
            interval=0, t_fraction=0.0,
        )
        assert {a.key for a in report.alarms} == {1}
        assert all(a.magnitude >= 1.0 for a in report.alarms)

    def test_all_zero_error_summary_never_alarms(self):
        report_fn_input = DictVector({})
        from repro.detection import build_interval_report

        report = build_interval_report(
            report_fn_input, np.array([5, 6], dtype=np.uint64),
            interval=0, t_fraction=0.05,
        )
        # threshold = 0.05 * 0 = 0; exact-zero errors must not alarm.
        assert report.threshold == 0.0
        assert report.alarms == []


class TestEmptyCandidates:
    """Regression: build_interval_report with zero candidate keys.

    This is a real code path -- the online detector's final interval is
    reported with no candidates -- and must produce a clean empty report
    (correct threshold and L2, empty arrays) on every schema, not trip
    over empty-array estimation."""

    EMPTY = np.array([], dtype=np.uint64)

    @staticmethod
    def _check_empty_report(report, expect_l2_positive):
        from repro.detection import IntervalDetection

        assert isinstance(report, IntervalDetection)
        assert report.alarms == []
        assert report.alarm_count == 0
        assert len(report.top_keys) == 0
        assert len(report.top_errors) == 0
        assert report.top_keys.dtype == np.uint64
        assert report.top_errors.dtype == np.float64
        assert report.threshold >= 0.0
        if expect_l2_positive:
            assert report.error_l2 > 0.0

    def test_kary_schema(self):
        from repro.detection import build_interval_report

        schema = KArySchema(depth=3, width=64, seed=0)
        error = schema.from_items(
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([10.0, -5.0, 2.0]),
        )
        report = build_interval_report(
            error, self.EMPTY, interval=4, t_fraction=0.05, top_n=3,
            schema=schema,
        )
        self._check_empty_report(report, expect_l2_positive=True)
        assert report.index == 4
        assert report.threshold == pytest.approx(
            0.05 * np.sqrt(error.estimate_f2())
        )

    def test_exact_schema(self):
        from repro.detection import build_interval_report

        error = DictVector({1: 10.0, 2: -5.0})
        report = build_interval_report(
            error, self.EMPTY, interval=0, t_fraction=0.05, top_n=2,
        )
        self._check_empty_report(report, expect_l2_positive=True)
        assert report.threshold == pytest.approx(
            0.05 * np.sqrt(10.0**2 + 5.0**2)
        )

    def test_dense_schema(self):
        from repro.detection import build_interval_report
        from repro.sketch.dense import DenseSchema, KeyIndex

        schema = DenseSchema(KeyIndex(np.array([1, 2, 3], dtype=np.uint64)))
        error = schema.from_items(
            np.array([1, 3], dtype=np.uint64), np.array([4.0, -2.0])
        )
        report = build_interval_report(
            error, self.EMPTY, interval=1, t_fraction=0.1, top_n=5,
            schema=schema,
        )
        self._check_empty_report(report, expect_l2_positive=True)

    def test_stats_keys_still_initialized(self):
        from repro.detection import build_interval_report

        stats = {}
        build_interval_report(
            DictVector({1: 1.0}), self.EMPTY, interval=0,
            t_fraction=0.05, stats=stats,
        )
        assert stats == {"candidates": 0, "median_evaluated": 0}

    def test_no_threshold_no_topn(self):
        from repro.detection import build_interval_report

        report = build_interval_report(
            DictVector({1: 1.0}), self.EMPTY, interval=0, t_fraction=None,
        )
        assert report.alarms == []
        assert report.threshold == 0.0  # None disables: threshold carried as 0
