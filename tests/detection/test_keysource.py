"""Tests for the key-source registry (detection/keysource.py)."""

import numpy as np
import pytest

from repro.detection import GroupTestingSchema
from repro.detection.keysource import (
    CANDIDATES_COUNTER,
    collect_replay_keys,
    resolve_key_source,
)
from repro.detection.threshold import alarm_threshold
from repro.obs import PipelineRecorder
from repro.sketch import InvertibleKArySchema, KArySchema


@pytest.fixture
def error_sketch(rng):
    schema = KArySchema(depth=3, width=512, seed=0)
    keys = rng.integers(0, 2**32, 3000, dtype=np.uint64)
    values = rng.normal(0, 50, 3000)
    return schema.from_items(keys, values)


class TestCollectReplayKeys:
    def test_empty(self):
        out = collect_replay_keys([])
        assert out.dtype == np.uint64 and len(out) == 0

    def test_single_interval_passthrough(self):
        keys = np.array([5, 1, 9], dtype=np.uint64)
        assert collect_replay_keys([keys]) is keys

    def test_multi_interval_union(self):
        a = np.array([1, 3], dtype=np.uint64)
        b = np.array([3, 7], dtype=np.uint64)
        assert collect_replay_keys([a, b]).tolist() == [1, 3, 7]


class TestResolve:
    def test_unknown_source_raises(self, error_sketch):
        with pytest.raises(ValueError, match="unknown key source"):
            resolve_key_source("psychic", error_sketch)

    def test_passthrough_returns_collected(self, error_sketch):
        keys = np.array([2, 4, 6], dtype=np.uint64)
        for source in ("twopass", "online"):
            assert resolve_key_source(
                source, error_sketch, collected=keys
            ) is keys

    def test_passthrough_without_collected_raises(self, error_sketch):
        with pytest.raises(ValueError, match="stream-collected"):
            resolve_key_source("twopass", error_sketch)

    def test_invertible_requires_invertible_summary(self, error_sketch):
        with pytest.raises(TypeError, match="recover_candidates"):
            resolve_key_source(
                "invertible", error_sketch, t_fraction=0.05
            )

    def test_grouptesting_requires_grouptesting_summary(self, error_sketch):
        with pytest.raises(TypeError, match="recover_keys"):
            resolve_key_source(
                "grouptesting", error_sketch, t_fraction=0.05
            )

    def test_grouptesting_requires_positive_threshold(self, rng):
        schema = GroupTestingSchema(depth=3, width=256, seed=0)
        sketch = schema.from_items(
            rng.integers(0, 2**32, 100, dtype=np.uint64), np.ones(100)
        )
        with pytest.raises(ValueError, match="positive alarm"):
            resolve_key_source("grouptesting", sketch)

    def test_invertible_matches_direct_recovery(self, rng):
        schema = InvertibleKArySchema(depth=5, width=1024, seed=1)
        keys = rng.integers(0, 2**32, 5000, dtype=np.uint64)
        values = rng.normal(0, 30, 5000)
        keys = np.concatenate([keys, np.repeat(np.uint64(0xABCD), 80)])
        values = np.concatenate([values, np.full(80, 20_000.0)])
        error = schema.from_items(keys, values)
        got = resolve_key_source("invertible", error, t_fraction=0.05)
        want = error.recover_candidates(alarm_threshold(error, 0.05))
        assert np.array_equal(got, want)
        assert 0xABCD in got.tolist()


class TestObservability:
    def test_candidates_counter_and_recover_stage(self, rng):
        schema = InvertibleKArySchema(depth=3, width=512, seed=2)
        keys = np.concatenate([
            rng.integers(0, 2**32, 2000, dtype=np.uint64),
            np.repeat(np.uint64(0x1234), 60),
        ])
        values = np.concatenate(
            [rng.normal(0, 20, 2000), np.full(60, 15_000.0)]
        )
        error = schema.from_items(keys, values)
        recorder = PipelineRecorder()
        got = resolve_key_source(
            "invertible", error, t_fraction=0.05, recorder=recorder
        )
        counter = recorder.registry.get(CANDIDATES_COUNTER)
        assert counter.value(source="invertible") == len(got)
        stage = recorder.registry.get("repro_stage_seconds")
        assert stage.snapshot(stage="recover")["count"] == 1

    def test_passthrough_counts_but_skips_stage(self, error_sketch):
        recorder = PipelineRecorder()
        keys = np.array([1, 2], dtype=np.uint64)
        resolve_key_source(
            "twopass", error_sketch, collected=keys, recorder=recorder
        )
        counter = recorder.registry.get(CANDIDATES_COUNTER)
        assert counter.value(source="twopass") == 2
        # No recovery walk ran; the stage may exist preregistered at
        # zero, but must not have accumulated an observation here.
        stage = recorder.registry.get("repro_stage_seconds")
        if stage is not None:
            assert stage.snapshot(stage="recover")["count"] == 0
