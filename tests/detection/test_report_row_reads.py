"""The report's two row reads agree.

``build_interval_report(..., schema=s)`` hashes the candidate keys once
with ``s.bucket_indices`` and reads their rows by index; without
``schema`` it reads them by key (the fused hash + gather).  Both must
give the same report, bit for bit, for every schema kind the seal sees:
k-ary over each hash family and width (including widths that are not
powers of two or exceed the 16-bit strips), folded widths as archive
queries use, invertible and Count Sketch schemas.  And the prescreen's
row medians agree with ``estimate_batch`` on signed error summaries for
the baseline kinds, whose ESTIMATE is a median of raw rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

import repro.hashing._kernels as _kernels
from repro.detection import build_interval_report
from repro.sketch import (
    CountMinSchema,
    CountSketchSchema,
    InvertibleKArySchema,
    KArySchema,
)
from repro.sketch.mergeable import fold_width, half_width_schema
from tests.detection.oracle import assert_reports_identical

FAMILIES = ("tabulation", "polynomial", "two-universal")

CASES = (
    [("kary", family, width) for family in FAMILIES
     for width in (1000, 1024, 131072)]
    + [("folded", family, 2048) for family in FAMILIES]
    + [("invertible", "tabulation", 1024), ("countsketch", "tabulation", 1024)]
)

#: (T, top_n): alarms only, the zero threshold, top-N only, and both.
SETTINGS = ((0.05, 0), (0.0, 0), (0.0, 5), (None, 10), (0.1, 3), (1.0, 8))


def _schema(kind, family, width):
    if kind == "invertible":
        return InvertibleKArySchema(depth=5, width=width, seed=17, family=family)
    if kind == "countsketch":
        return CountSketchSchema(depth=5, width=width, seed=17, family=family)
    return KArySchema(depth=5, width=width, seed=17, family=family)


@lru_cache(maxsize=None)
def _error_and_keys(kind, family, width):
    """An interval's error summary ``Se = S1 - S0`` and its candidates."""
    rng = np.random.default_rng(2003)
    schema = _schema(kind, family, width)
    population = rng.integers(0, 2**32, 1500, dtype=np.uint64)
    before = rng.choice(population, 4000)
    after = rng.choice(population, 4000)
    weights = rng.pareto(1.2, 4000) * 100 + 40
    s0 = schema.from_items(before, weights)
    s1 = schema.from_items(after, weights[::-1].copy())
    # A few keys change sharply so the threshold has something to find.
    s1.update_batch(population[:6], np.full(6, 1e5))
    error = s1 - s0
    if kind == "folded":
        error = fold_width(error, schema=half_width_schema(schema))
    # Sorted and deduplicated, plus keys no interval carried.
    keys = np.unique(np.concatenate([before, after, population[-50:] + 1]))
    return error, keys


@pytest.mark.parametrize("t_fraction, top_n", SETTINGS)
@pytest.mark.parametrize("prescreen", [True, False])
@pytest.mark.parametrize(
    "case", CASES, ids=["-".join(map(str, case)) for case in CASES]
)
def test_index_read_matches_key_read(case, prescreen, t_fraction, top_n):
    error, keys = _error_and_keys(*case)

    def report(**kwargs):
        return build_interval_report(
            error, keys, interval=7, t_fraction=t_fraction, top_n=top_n,
            prescreen=prescreen, **kwargs,
        )

    assert_reports_identical([report(schema=error.schema)], [report()])


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "numpy"])
@pytest.mark.parametrize(
    "schema_cls", [CountMinSchema, CountSketchSchema],
    ids=["countmin", "countsketch"],
)
def test_prescreen_matches_estimate_on_signed_errors(
    schema_cls, kernels, monkeypatch
):
    """``Se = A - B`` is signed, so ESTIMATE must be turnstile-correct on
    every kind: the report with and without the prescreen is the same."""
    if not kernels:
        monkeypatch.setattr(_kernels, "_KERNELS", None)
    rng = np.random.default_rng(2003)
    schema = schema_cls(depth=5, width=1024, seed=17)
    keys = np.unique(rng.integers(0, 2**32, 3000, dtype=np.uint64))
    a = schema.from_items(keys, rng.pareto(1.2, len(keys)) * 100 + 40)
    b = schema.from_items(keys, rng.pareto(1.2, len(keys)) * 100 + 40)
    error = a - b
    on, off = (
        build_interval_report(
            error, keys, interval=3, t_fraction=0.05, top_n=20,
            schema=schema, prescreen=prescreen,
        )
        for prescreen in (True, False)
    )
    assert on.alarm_count
    assert_reports_identical([on], [off])
