"""Tests for heavy-hitter queries and the heavy-vs-change distinction."""

import numpy as np
import pytest

from repro.detection import HeavyHitterTracker, heavy_hitters
from repro.detection.twopass import OfflineTwoPassDetector
from repro.sketch import DictVector, KArySchema
from repro.streams.model import KeyedUpdates


class TestHeavyHitters:
    def test_exact_detection(self):
        vec = DictVector({1: 60.0, 2: 25.0, 3: 10.0, 4: 5.0})
        hitters = heavy_hitters(vec, np.array([1, 2, 3, 4]), phi=0.2)
        assert set(hitters) == {1, 2}
        assert hitters[1] == pytest.approx(60.0)

    def test_phi_validation(self):
        with pytest.raises(ValueError):
            heavy_hitters(DictVector(), np.array([1]), phi=0.0)
        with pytest.raises(ValueError):
            heavy_hitters(DictVector(), np.array([1]), phi=1.0)

    def test_empty_candidates(self):
        assert heavy_hitters(DictVector({1: 5.0}), np.array([]), 0.1) == {}

    def test_on_sketch(self, rng):
        schema = KArySchema(depth=5, width=4096, seed=0)
        keys = rng.integers(0, 2**32, 5000, dtype=np.uint64)
        values = rng.random(5000) * 10
        keys = np.concatenate([keys, [12345]]).astype(np.uint64)
        values = np.concatenate([values, [30000.0]])  # >= 50% of total
        sketch = schema.from_items(keys, values)
        hitters = heavy_hitters(sketch, np.unique(keys), phi=0.3)
        assert 12345 in hitters


class TestTracker:
    def test_streaks(self):
        tracker = HeavyHitterTracker(phi=0.3)
        tracker.update(DictVector({1: 80.0, 2: 20.0}), np.array([1, 2]))
        tracker.update(DictVector({1: 75.0, 2: 25.0}), np.array([1, 2]))
        tracker.update(DictVector({1: 40.0, 2: 60.0}), np.array([1, 2]))
        assert tracker.persistent(3) == [1]
        assert tracker.new_this_interval() == [2]
        assert tracker.intervals_seen == 3

    def test_streak_resets_when_not_heavy(self):
        tracker = HeavyHitterTracker(phi=0.5)
        tracker.update(DictVector({1: 90.0, 2: 10.0}), np.array([1, 2]))
        tracker.update(DictVector({1: 10.0, 2: 90.0}), np.array([1, 2]))
        tracker.update(DictVector({1: 90.0, 2: 10.0}), np.array([1, 2]))
        assert tracker.persistent(2) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            HeavyHitterTracker(phi=1.5)
        tracker = HeavyHitterTracker(phi=0.5)
        with pytest.raises(ValueError):
            tracker.persistent(0)


class TestHeavyVersusChange:
    """The paper's point: heavy hitters != flows with significant changes."""

    @staticmethod
    def _batches(rng):
        """A stable elephant + a mouse that suddenly grows 20x."""
        background_keys = rng.integers(0, 2**30, size=(8, 2000)).astype(np.uint64)
        batches = []
        for t in range(8):
            keys = np.concatenate([
                background_keys[t],
                [111],           # elephant: constant huge volume
                [222],           # mouse: small until t=6
            ]).astype(np.uint64)
            mouse_value = 40000.0 if t >= 6 else 2000.0
            values = np.concatenate([
                rng.random(2000) * 100 + 40,
                [1_000_000.0],
                [mouse_value],
            ])
            batches.append(
                KeyedUpdates(index=t, keys=keys, values=values)
            )
        return batches

    def test_elephant_is_heavy_but_not_a_change(self, rng):
        batches = self._batches(rng)
        schema = KArySchema(depth=5, width=8192, seed=1)
        # Heavy hitters in the last interval:
        last = batches[-1]
        sketch = schema.from_items(last.keys, last.values)
        hitters = heavy_hitters(sketch, np.unique(last.keys), phi=0.2)
        assert 111 in hitters
        assert 222 not in hitters
        # Change detection over the stream:
        detector = OfflineTwoPassDetector(
            schema, "ewma", alpha=0.5, t_fraction=0.3
        )
        change_keys = {
            a.key for r in detector.run(batches) if r.index >= 6 for a in r.alarms
        }
        assert 222 in change_keys   # the mouse's jump is the change
        assert 111 not in change_keys  # the elephant never changes
