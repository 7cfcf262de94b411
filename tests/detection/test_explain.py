"""Tests for alarm triage/explanation."""

import numpy as np
import pytest

from repro.detection import explain_alarm
from repro.streams import concat_records, interval_index, make_records
from repro.traffic import TrafficGenerator, get_profile, inject_dos, inject_flash_crowd
from repro.traffic.routers import RouterProfile


@pytest.fixture(scope="module")
def scenario():
    profile = RouterProfile("x", records_per_interval=2000,
                            key_population=3000, seed=2)
    background = TrafficGenerator(profile, duration=3600.0).generate()
    rng = np.random.default_rng(6)
    dos, dos_event = inject_dos(
        rng, start=1800.0, end=2100.0, records_per_second=30.0,
        bytes_per_record=2000.0, attacker_count=3,
    )
    crowd, crowd_event = inject_flash_crowd(
        rng, start=2400.0, end=3000.0, peak_records_per_second=30.0,
    )
    return concat_records([background, dos, crowd]), dos_event, crowd_event


class TestExplainAlarm:
    def test_dos_classified_dos_like(self, scenario):
        records, dos_event, _ = scenario
        explanation = explain_alarm(records, dos_event.keys[0], interval=6)
        assert explanation.record_count > 0
        assert explanation.classify() == "dos-like"
        assert explanation.distinct_sources <= 3
        assert explanation.history_ratio == float("inf")  # no prior traffic

    def test_flash_crowd_classified_crowd_like(self, scenario):
        records, _, crowd_event = scenario
        explanation = explain_alarm(records, crowd_event.keys[0], interval=9)
        assert explanation.distinct_sources >= 32
        assert explanation.classify() == "flash-crowd-like"

    def test_disappearance(self, scenario):
        records, dos_event, _ = scenario
        # Interval 8: the DoS has stopped; no records for the victim.
        explanation = explain_alarm(records, dos_event.keys[0], interval=8)
        assert explanation.record_count == 0
        assert explanation.classify() == "disappearance"

    def test_byte_accounting(self, scenario):
        records, dos_event, _ = scenario
        explanation = explain_alarm(records, dos_event.keys[0], interval=6)
        # DoS interval 6 covers 1800-2100: the full attack window.
        assert explanation.total_bytes == pytest.approx(
            dos_event.total_bytes, rel=0.01
        )

    def test_port_mix_shares_sum_to_one(self, scenario):
        records, _, crowd_event = scenario
        explanation = explain_alarm(records, crowd_event.keys[0], interval=9)
        assert sum(share for _, share in explanation.port_mix) == pytest.approx(
            1.0, abs=0.01
        )
        assert sum(explanation.protocol_mix.values()) == pytest.approx(1.0)

    def test_history_ratio_for_steady_key(self, scenario):
        records, _, _ = scenario
        # Pick a busy background key: most records in interval 7.
        t = records["timestamp"]
        window = records[(t >= 2100.0) & (t < 2400.0)]
        busy = np.unique(window["dst_ip"], return_counts=True)
        key = int(busy[0][np.argmax(busy[1])])
        explanation = explain_alarm(records, key, interval=7)
        assert 0.1 < explanation.history_ratio < 10.0

    def test_render(self, scenario):
        records, dos_event, _ = scenario
        text = explain_alarm(records, dos_event.keys[0], interval=6).render()
        assert "dos-like" in text
        assert "sources" in text

    def test_validation(self, scenario):
        records, dos_event, _ = scenario
        with pytest.raises(ValueError):
            explain_alarm(records, dos_event.keys[0], interval=True)
        with pytest.raises(ValueError):
            explain_alarm(records, dos_event.keys[0], interval=0,
                          interval_seconds=0)

    def test_source_concentration(self, scenario):
        records, dos_event, _ = scenario
        explanation = explain_alarm(records, dos_event.keys[0], interval=6)
        # 3 attackers with similar volume: top talker ~1/3 of bytes or more.
        assert explanation.source_concentration >= 0.25


class TestIntervalBinning:
    """Records are binned with the detector's own ``interval_index``."""

    INTERVAL = 59.97  # non-dyadic: 5 * L + L != interval_edge(6)

    def _records(self):
        # Key 7 at 358.82, 359.82 and 360.82 s: interval_index says 5, 6, 6.
        return make_records([358.82, 359.82, 360.82], [7, 7, 7], [100, 200, 400])

    def test_edge_record_counts_in_one_interval(self):
        records = self._records()
        assert interval_index(records["timestamp"], self.INTERVAL).tolist() == [
            5, 6, 6,
        ]
        five = explain_alarm(records, 7, interval=5, interval_seconds=self.INTERVAL)
        six = explain_alarm(records, 7, interval=6, interval_seconds=self.INTERVAL)
        assert (five.record_count, five.total_bytes) == (1, 100.0)
        assert (six.record_count, six.total_bytes) == (2, 600.0)
        assert five.history_ratio == float("inf")
        # The history starts at the first record's interval, 5, which
        # holds only the 100-byte record.
        assert six.history_ratio == 600.0 / 100.0

    def test_non_finite_timestamp_raises(self):
        records = make_records([1.0, float("nan")], [7, 7], [100, 200])
        with pytest.raises(ValueError, match="finite"):
            explain_alarm(records, 7, interval=0)

    def test_non_integer_interval_raises(self):
        with pytest.raises(ValueError, match="integer"):
            explain_alarm(self._records(), 7, interval=5.0,
                          interval_seconds=self.INTERVAL)


class TestHistoryWindow:
    """The trailing window covers only intervals a detector saw: every
    driver's series starts at the trace's first record's interval."""

    def test_history_starts_at_the_first_records_interval(self):
        # Interval 5 holds 100 bytes; interval 6 holds 600.  The
        # intervals before 5 are not zero traffic but no traffic seen.
        records = make_records(
            [1500.0, 1800.0, 1810.0], [7, 7, 7], [100, 300, 300]
        )
        six = explain_alarm(records, 7, interval=6)
        assert six.history_ratio == 600.0 / 100.0

    def test_negative_interval_explained(self):
        """A session numbers a negative timestamp's interval negative."""
        records = make_records(
            [-600.0, -300.0, -290.0], [7, 7, 7], [100, 200, 400]
        )
        explanation = explain_alarm(records, 7, interval=-1)
        assert (explanation.record_count, explanation.total_bytes) == (2, 600.0)
        assert explanation.history_ratio == 600.0 / 100.0
