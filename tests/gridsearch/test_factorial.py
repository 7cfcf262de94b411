"""Tests for the 2^k factorial screening with Yates' algorithm."""

import numpy as np
import pytest

from repro.gridsearch import (
    FactorialEffect,
    full_factorial,
    screening_report,
    yates,
)


class TestYates:
    def test_two_factor_by_hand(self):
        """Classic textbook check: responses in standard order (1), a, b, ab."""
        responses = [10.0, 14.0, 12.0, 18.0]
        contrasts = yates(responses)
        assert contrasts[0] == pytest.approx(54.0)          # total
        assert contrasts[1] == pytest.approx(10.0)          # A contrast
        assert contrasts[2] == pytest.approx(6.0)           # B contrast
        assert contrasts[3] == pytest.approx(2.0)           # AB contrast

    def test_single_factor(self):
        assert yates([3.0, 7.0]) == [10.0, 4.0]

    def test_length_validated(self):
        with pytest.raises(ValueError):
            yates([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            yates([])

    def test_contrasts_match_direct_computation(self, rng):
        """Yates' passes must equal the brute-force signed sums."""
        k = 3
        responses = rng.random(2**k).tolist()
        contrasts = yates(responses)
        for index in range(2**k):
            direct = 0.0
            for run in range(2**k):
                sign = 1.0
                for bit in range(k):
                    if (index >> bit) & 1:
                        sign *= 1.0 if (run >> bit) & 1 else -1.0
                direct += sign * responses[run]
            assert contrasts[index] == pytest.approx(direct)


class TestFullFactorial:
    def test_additive_response_has_no_interaction(self):
        def response(setting):
            return 2.0 * setting["x"] + 3.0 * setting["y"]

        effects = full_factorial({"x": (0, 1), "y": (0, 1)}, response)
        by_name = {e.name: e.effect for e in effects}
        assert by_name["x"] == pytest.approx(2.0)
        assert by_name["y"] == pytest.approx(3.0)
        assert by_name["x:y"] == pytest.approx(0.0)
        assert by_name["mean"] == pytest.approx(2.5)

    def test_pure_interaction(self):
        def response(setting):
            return float(setting["a"] * setting["b"])

        effects = full_factorial({"a": (0, 1), "b": (0, 1)}, response)
        by_name = {e.name: e.effect for e in effects}
        assert by_name["a:b"] == pytest.approx(0.5)
        # Main effects of a pure product at these levels are 0.5 each.
        assert by_name["a"] == pytest.approx(0.5)

    def test_effect_ordering(self):
        def response(setting):
            return 10.0 * setting["big"] + 0.1 * setting["small"]

        effects = full_factorial(
            {"big": (0, 1), "small": (0, 1)}, response
        )
        assert effects[0].name == "big"
        assert effects[-1].name == "mean"

    def test_three_factors(self):
        def response(setting):
            return setting["a"] + 2 * setting["b"] + 4 * setting["c"]

        effects = full_factorial(
            {"a": (0, 1), "b": (0, 1), "c": (0, 1)}, response
        )
        by_name = {e.name: e.effect for e in effects}
        assert by_name["c"] == pytest.approx(4.0)
        assert by_name["a:b:c"] == pytest.approx(0.0)

    def test_non_numeric_levels(self):
        """Levels can be arbitrary objects (models, schemas, ...)."""
        def response(setting):
            return {"ewma": 1.0, "nshw": 3.0}[setting["model"]]

        effects = full_factorial({"model": ("ewma", "nshw")}, response)
        by_name = {e.name: e.effect for e in effects}
        assert by_name["model"] == pytest.approx(2.0)

    def test_empty_factors_rejected(self):
        with pytest.raises(ValueError):
            full_factorial({}, lambda s: 0.0)


class TestScreeningReport:
    def test_renders_all_terms(self):
        effects = [
            FactorialEffect(factors=("H",), effect=1.5),
            FactorialEffect(factors=("H", "K"), effect=-0.25),
            FactorialEffect(factors=(), effect=10.0),
        ]
        text = screening_report(effects)
        assert "H" in text
        assert "H:K" in text
        assert "mean" in text


class TestOnDetectionPipeline:
    def test_screens_h_and_k(self, rng):
        """The paper's use case: which of H and K dominates accuracy?

        Response: mean top-50 similarity vs per-flow.  K's main effect
        should dominate H's at these levels (paper: prefer growing K)."""
        from tests.conftest import make_batches
        from repro.detection import run_per_flow
        from repro.detection.topn import similarity
        from repro.experiments.common import run_sketch
        from repro.forecast import EWMAForecaster
        from repro.sketch import KArySchema

        batches = make_batches(rng, intervals=8, keys_per_interval=6000,
                               population=4000)
        perflow = run_per_flow(batches, "ewma", alpha=0.5)

        def response(setting):
            schema = KArySchema(depth=setting["H"], width=setting["K"], seed=0)
            run = run_sketch(batches, schema, EWMAForecaster(0.5), rank_depth=50)
            sims = [
                similarity(sk_top, perflow.top_n(index, 50), 50)
                for index, sk_top in zip(run.indices, run.ranked_keys)
            ]
            return float(np.mean(sims))

        effects = full_factorial({"H": (1, 5), "K": (512, 8192)}, response)
        by_name = {e.name: e.effect for e in effects}
        assert by_name["H"] > 0      # more rows help
        assert by_name["K"] > 0      # more buckets help
