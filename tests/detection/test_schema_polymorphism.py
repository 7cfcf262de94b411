"""The pipeline must accept every schema type interchangeably.

This is the architectural contract DESIGN.md leans on: the
summarize/forecast/detect engine is generic over the summary type, so the
same code path serves k-ary sketches, baselines, group-testing sketches
and exact vectors.
"""

import numpy as np
import pytest

from repro.detection import GroupTestingSchema, OfflineTwoPassDetector
from repro.detection.pipeline import summarize_stream
from repro.forecast import EWMAForecaster
from repro.sketch import (
    CountMinSchema,
    CountSketchSchema,
    DenseSchema,
    ExactSchema,
    KArySchema,
    KeyIndex,
)

from tests.conftest import make_batches


def _all_schemas(batches):
    index = KeyIndex.from_streams([b.keys for b in batches])
    return {
        "kary": KArySchema(depth=3, width=1024, seed=0),
        "countmin": CountMinSchema(depth=3, width=1024, seed=0),
        "countsketch": CountSketchSchema(depth=3, width=1024, seed=0),
        "grouptesting": GroupTestingSchema(depth=3, width=256, seed=0),
        "exact": ExactSchema(),
        "dense": DenseSchema(index),
    }


@pytest.fixture
def small_batches(rng):
    return make_batches(rng, intervals=5, keys_per_interval=800, population=300)


class TestSummarizePolymorphism:
    def test_all_schemas_summarize(self, small_batches):
        for name, schema in _all_schemas(small_batches).items():
            observed = summarize_stream(small_batches, schema)
            assert len(observed) == 5, name
            total = observed[0].total() if hasattr(observed[0], "total") else None
            if total is not None:
                assert total == pytest.approx(
                    small_batches[0].values.sum(), rel=1e-9
                ), name

    def test_all_schemas_run_pipeline(self, small_batches):
        """The two-pass detector seals over every schema kind."""
        for name, schema in _all_schemas(small_batches).items():
            reports = OfflineTwoPassDetector(
                schema, EWMAForecaster(0.5), t_fraction=0.2, top_n=5,
            ).detect(small_batches)
            assert [r.index for r in reports] == [1, 2, 3, 4], name
            # Every error summary supports the F2 / estimate interface.
            for report in reports:
                assert isinstance(report.error_l2, float), name
                assert report.error_l2 > 0.0, name
                assert len(report.top_keys) == 5, name

    def test_detector_over_group_testing_schema(self, small_batches):
        """The full detector also runs over group-testing summaries."""
        detector = OfflineTwoPassDetector(
            GroupTestingSchema(depth=3, width=256, seed=0),
            "ewma", alpha=0.5, t_fraction=0.2,
        )
        reports = detector.detect(small_batches)
        assert len(reports) == 4

    @pytest.mark.parametrize("name", ["countmin", "countsketch"])
    def test_detector_over_baseline_schema(self, small_batches, name):
        """The full detector (EWMA forecast in sketch space, COMBINE,
        threshold) over each baseline raises the exact oracle's alarms:
        at width 1024 over 300 keys no candidate collides."""
        schemas = _all_schemas(small_batches)

        def alarm_keys(schema):
            detector = OfflineTwoPassDetector(
                schema, "ewma", alpha=0.5, t_fraction=0.2,
            )
            return [
                sorted(alarm.key for alarm in report.alarms)
                for report in detector.detect(small_batches)
            ]

        expected = alarm_keys(schemas["dense"])
        assert len(expected) == 4 and any(expected)
        assert alarm_keys(schemas[name]) == expected

    def test_estimates_agree_across_summaries(self, small_batches):
        """On the same stream, all unbiased summaries agree on the top key
        within their noise scales."""
        index = KeyIndex.from_streams([b.keys for b in small_batches])
        dense = summarize_stream(small_batches, DenseSchema(index))[0]
        keys, values = dense.top_n(1)
        top_key = np.array([keys[0]], dtype=np.uint64)
        truth = float(values[0])
        for name, schema in _all_schemas(small_batches).items():
            if name in ("exact", "dense", "countmin"):
                continue  # exact trivially agrees; CM is biased by design
            observed = summarize_stream(small_batches, schema)[0]
            estimate = float(observed.estimate_batch(top_key)[0])
            assert estimate == pytest.approx(truth, rel=0.25), name
