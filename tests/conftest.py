"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch import KArySchema
from repro.streams.model import KeyedUpdates


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_schema() -> KArySchema:
    """A small k-ary schema suitable for fast unit tests."""
    return KArySchema(depth=5, width=512, seed=7)


@pytest.fixture
def zipf_stream(rng) -> tuple:
    """A heavy-tailed keyed update stream: (keys, values)."""
    population = rng.integers(0, 2**32, size=2000, dtype=np.uint64)
    ranks = np.arange(1, len(population) + 1, dtype=np.float64)
    probs = ranks**-1.0
    probs /= probs.sum()
    idx = rng.choice(len(population), size=20000, p=probs)
    keys = population[idx]
    values = rng.pareto(1.3, size=20000) * 100 + 40
    return keys, values


def make_batches(
    rng: np.random.Generator,
    intervals: int = 12,
    keys_per_interval: int = 3000,
    population: int = 1500,
    drift: float = 0.0,
) -> list:
    """Synthetic per-interval keyed-update batches for pipeline tests.

    ``drift`` adds a deterministic per-interval multiplicative trend so
    trend-aware forecasters have signal.
    """
    pop = rng.integers(0, 2**32, size=population, dtype=np.uint64)
    ranks = np.arange(1, population + 1, dtype=np.float64)
    probs = ranks**-1.0
    probs /= probs.sum()
    batches = []
    for t in range(intervals):
        idx = rng.choice(population, size=keys_per_interval, p=probs)
        keys = pop[idx]
        scale = 1.0 + drift * t
        values = (rng.pareto(1.3, size=keys_per_interval) * 100 + 40) * scale
        batches.append(
            KeyedUpdates(index=t, keys=keys, values=values)
        )
    return batches


@pytest.fixture
def batches(rng) -> list:
    """Default small batch stream."""
    return make_batches(rng)
