"""Table 1: running time of hash computation, UPDATE and ESTIMATE.

True microbenchmarks of the three operations the paper times (H=5,
K=2**16), plus ESTIMATEF2, COMBINE and one forecast step for
completeness.  pytest-benchmark reports per-batch times; the companion
exhibit (`table1` experiment) converts them to the paper's
seconds-per-10M-operations form.
"""

import numpy as np
import pytest

from benchmarks._util import run_exhibit
from repro.forecast import HoltWintersForecaster
from repro.sketch import KArySchema

BATCH = 100_000
DEPTH = 5
WIDTH = 1 << 16


@pytest.fixture(scope="module")
def setup():
    schema = KArySchema(depth=DEPTH, width=WIDTH, seed=0)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 32, size=BATCH, dtype=np.uint64)
    values = rng.random(BATCH)
    sketch = schema.from_items(keys, values)
    other = schema.from_items(keys[::-1], values)
    return schema, keys, values, sketch, other


def test_hash_computation(benchmark, setup):
    """Hash a batch of keys with all H row functions."""
    schema, keys, _, _, _ = setup

    def do_hash():
        for h in schema.hashes:
            h.hash_array(keys)

    benchmark(do_hash)


def test_update(benchmark, setup):
    """UPDATE a batch of keyed values (H=5, K=2^16)."""
    schema, keys, values, sketch, _ = setup
    benchmark(sketch.update_batch, keys, values)


def test_estimate(benchmark, setup):
    """ESTIMATE a batch of keys (H=5, K=2^16)."""
    _, keys, _, sketch, _ = setup
    benchmark(sketch.estimate_batch, keys)


def test_estimate_f2(benchmark, setup):
    """ESTIMATEF2 (done once per interval; amortized cost insignificant)."""
    _, _, _, sketch, _ = setup
    benchmark(sketch.estimate_f2)


def test_combine(benchmark, setup):
    """COMBINE two sketches with coefficients (one forecast-model step)."""
    _, _, _, sketch, other = setup

    def do_combine():
        return 0.6 * sketch + 0.4 * other

    benchmark(do_combine)


def test_forecast_step(benchmark, setup):
    """One NSHW ``step_into``: the new state and Se in one COMBINE sweep.

    The step writes Se over the observed sketch, so every round steps a
    fresh copy, made outside the timed call.
    """
    _, _, _, sketch, other = setup
    forecaster = HoltWintersForecaster(alpha=0.5, beta=0.2)
    for observed in (sketch, other):  # warm-up: the trend needs two
        forecaster.step_into(observed.copy())

    benchmark.pedantic(
        forecaster.step_into, setup=lambda: ((sketch.copy(),), {}), rounds=200
    )


def test_table1_exhibit(benchmark):
    """Regenerate Table 1 in the paper's seconds-per-10M-ops form."""
    run_exhibit(benchmark, "table1")
