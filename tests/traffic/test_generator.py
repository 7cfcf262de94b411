"""Tests for the synthetic traffic generator."""

import numpy as np
import pytest

from repro.streams import IntervalSlicer, validate_records
from repro.traffic import TrafficGenerator, get_profile
from repro.traffic.routers import RouterProfile


@pytest.fixture(scope="module")
def small_trace():
    profile = RouterProfile("test", records_per_interval=2000,
                            key_population=3000, seed=7)
    return TrafficGenerator(profile, duration=3600.0).generate(), profile


class TestGenerator:
    def test_valid_records(self, small_trace):
        records, _ = small_trace
        validate_records(records)

    def test_sorted_by_time(self, small_trace):
        records, _ = small_trace
        assert np.all(np.diff(records["timestamp"]) >= 0)

    def test_timestamps_within_duration(self, small_trace):
        records, _ = small_trace
        assert records["timestamp"].min() >= 0
        assert records["timestamp"].max() < 3600.0

    def test_volume_near_profile(self, small_trace):
        records, profile = small_trace
        per_300s = len(records) / 12
        assert per_300s == pytest.approx(profile.records_per_interval, rel=0.4)

    def test_keys_drawn_from_population(self, small_trace):
        records, profile = small_trace
        distinct = len(np.unique(records["dst_ip"]))
        assert distinct <= profile.key_population

    def test_popularity_is_skewed(self, small_trace):
        records, _ = small_trace
        _, counts = np.unique(records["dst_ip"], return_counts=True)
        counts = np.sort(counts)[::-1]
        top1_share = counts[: max(1, len(counts) // 100)].sum() / counts.sum()
        assert top1_share > 0.05  # top 1% of keys carry >5% of records

    def test_avoids_reserved_block(self, small_trace):
        """10/8 is reserved for injected anomaly actors."""
        records, _ = small_trace
        assert not np.any((records["dst_ip"] >> 24) == 10)

    def test_deterministic_per_seed(self):
        profile = RouterProfile("d", 500, 1000, seed=3)
        a = TrafficGenerator(profile, duration=600.0).generate()
        b = TrafficGenerator(profile, duration=600.0).generate()
        assert np.array_equal(a, b)

    def test_seed_override_changes_trace(self):
        profile = RouterProfile("d", 500, 1000, seed=3)
        a = TrafficGenerator(profile, duration=600.0).generate()
        b = TrafficGenerator(profile, duration=600.0, seed=99).generate()
        assert not np.array_equal(a, b)

    def test_no_empty_intervals(self, small_trace):
        """Every analysis interval should contain traffic."""
        records, _ = small_trace
        for _, chunk in IntervalSlicer(300.0).slices(records):
            assert len(chunk) > 0

    def test_validation(self):
        profile = RouterProfile("v", 10, 10)
        with pytest.raises(ValueError):
            TrafficGenerator(profile, duration=0)
        with pytest.raises(ValueError):
            TrafficGenerator(profile, base_interval=0)

    def test_bytes_positive(self, small_trace):
        records, _ = small_trace
        assert records["bytes"].min() >= 40


class TestRouterProfiles:
    def test_known_profiles(self):
        for name in ("large", "medium", "small"):
            profile = get_profile(name)
            assert profile.name == name

    def test_relative_scales(self):
        large = get_profile("large")
        medium = get_profile("medium")
        small = get_profile("small")
        assert large.records_per_interval > medium.records_per_interval
        assert medium.records_per_interval > small.records_per_interval
        # The paper's large:small ratio is ~11:1.
        ratio = large.records_per_interval / small.records_per_interval
        assert 8 < ratio < 15

    def test_scaled(self):
        profile = get_profile("medium", scale=2.0)
        base = get_profile("medium")
        assert profile.records_per_interval == 2 * base.records_per_interval
        assert profile.key_population == 2 * base.key_population

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            get_profile("medium").scaled(0)

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown router"):
            get_profile("core-42")
