"""Tests for ``summarize_stream``."""

import pytest

from repro.detection import summarize_stream
from repro.sketch import ExactSchema

from tests.conftest import make_batches


class TestSummarizeStream:
    def test_one_summary_per_interval(self, rng, small_schema):
        batches = make_batches(rng, intervals=5)
        observed = summarize_stream(batches, small_schema)
        assert len(observed) == 5
        for batch, sketch in zip(batches, observed):
            assert sketch.total() == pytest.approx(batch.values.sum(), rel=1e-9)

    def test_exact_schema(self, rng):
        batches = make_batches(rng, intervals=3)
        observed = summarize_stream(batches, ExactSchema())
        assert observed[0].total() == pytest.approx(batches[0].values.sum())
