"""Tests for top-N reconstruction and the similarity metric."""

import numpy as np
import pytest

from repro.detection import top_n_keys
from repro.detection.topn import similarity
from repro.sketch import DictVector, KArySchema


class TestTopNKeys:
    def test_exact_ranking(self):
        vec = DictVector({1: 10.0, 2: -50.0, 3: 30.0, 4: 5.0})
        top = top_n_keys(vec, np.array([1, 2, 3, 4]), 2)
        assert top.tolist() == [2, 3]

    def test_ties_broken_by_key(self):
        vec = DictVector({9: 5.0, 3: 5.0, 7: 5.0})
        top = top_n_keys(vec, np.array([9, 3, 7]), 3)
        assert top.tolist() == [3, 7, 9]

    def test_candidates_limit_result(self):
        vec = DictVector({1: 100.0, 2: 50.0})
        top = top_n_keys(vec, np.array([2]), 5)
        assert top.tolist() == [2]

    def test_return_estimates(self):
        vec = DictVector({1: 10.0, 2: -20.0})
        keys, estimates = top_n_keys(
            vec, np.array([1, 2]), 2, return_estimates=True
        )
        assert keys.tolist() == [2, 1]
        assert estimates.tolist() == [-20.0, 10.0]

    def test_n_zero(self):
        vec = DictVector({1: 1.0})
        assert len(top_n_keys(vec, np.array([1]), 0)) == 0

    def test_empty_candidates(self):
        keys, estimates = top_n_keys(
            DictVector(), np.array([]), 5, return_estimates=True
        )
        assert len(keys) == 0
        assert len(estimates) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            top_n_keys(DictVector(), np.array([1]), -1)

    def test_sketch_topn_matches_exact_on_dominant_keys(self, rng):
        """With K much larger than the key count, sketch top-N is exact."""
        schema = KArySchema(depth=5, width=8192, seed=2)
        keys = np.arange(100, dtype=np.uint64)
        values = rng.pareto(1.0, 100) * 1000 + 10
        sketch = schema.from_items(keys, values)
        exact = DictVector()
        exact.update_batch(keys, values)
        sk_top = top_n_keys(sketch, keys, 10)
        ex_top = top_n_keys(exact, keys, 10)
        assert similarity(sk_top, ex_top, 10) >= 0.9


class TestSimilarity:
    def test_identical_sets(self):
        assert similarity([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint_sets(self):
        assert similarity([1, 2], [3, 4]) == 0.0

    def test_partial_overlap(self):
        assert similarity([1, 2, 3, 4], [3, 4, 5, 6], n=4) == 0.5

    def test_explicit_n(self):
        assert similarity([1, 2], [1, 2, 3, 4], n=2) == 1.0

    def test_empty(self):
        assert similarity([], []) == 1.0
