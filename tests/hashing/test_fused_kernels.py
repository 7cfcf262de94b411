"""Bit-identity matrix for the fused UPDATE/ESTIMATE kernels.

Every fused C kernel (hash+scatter update, signed update, hash+gather,
hash+gather+median estimate, and their precomputed-index variants) is an
execution strategy, never a result change.  These tests build the same
sketch twice -- once with the compiled kernels, once with them force-
disabled so every operation runs the pure-NumPy reference path -- and
assert the tables and estimates are **bit-for-bit** equal across

* three sketch types: k-ary, Count-Min, CountSketch;
* three hash families: tabulation, polynomial, two-universal;
* update, estimate, and estimate-via-precomputed-indices paths;

and the invertible recovery walk's bucket mask against its blocked
NumPy fallback.

When no compiler is available both worlds run NumPy and the tests still
pass (they then assert the fallback against itself); the kernel-specific
tests skip.
"""

import numpy as np
import pytest

import repro.hashing._kernels as _kernels
from repro.hashing import kernel_call_counts, mv_recover_mask
from repro.hashing._kernels import get_kernels
from repro.sketch import (
    CountMinSchema,
    CountMinSketch,
    CountSketch,
    CountSketchSchema,
    KArySchema,
    KArySketch,
)

FAMILIES = ("tabulation", "polynomial", "two-universal")
SKETCHES = {
    "kary": (KArySchema, KArySketch),
    "countmin": (CountMinSchema, CountMinSketch),
    "countsketch": (CountSketchSchema, CountSketch),
}

DEPTH, WIDTH, SEED = 5, 2048, 11


def _stream(rng, n=6000):
    # Tabulation hashing is specified for 32-bit keys (the paper's IPv4
    # address space); the algebraic families accept wider keys but the
    # shared matrix sticks to the common domain.
    keys = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    values = rng.normal(50.0, 200.0, size=n)
    return keys, values


def _build(schema_cls, sketch_cls, family, keys, values):
    schema = schema_cls(depth=DEPTH, width=WIDTH, seed=SEED, family=family)
    sketch = sketch_cls(schema)
    sketch.update_batch(keys, values)
    return schema, sketch


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", sorted(SKETCHES))
class TestKernelVsNumpyBitIdentity:
    def test_update_and_estimate(self, rng, kind, family, monkeypatch):
        schema_cls, sketch_cls = SKETCHES[kind]
        keys, values = _stream(rng)
        query = rng.choice(keys, size=2000, replace=True)

        # Kernel world (or NumPy twice when no compiler is available).
        schema, sketch = _build(schema_cls, sketch_cls, family, keys, values)
        est = sketch.estimate_batch(query)
        idx = schema.bucket_indices(query)

        # Reference world: schemas built inside the patch capture no
        # kernel handle, so every path runs the NumPy fallback.
        monkeypatch.setattr(_kernels, "_KERNELS", None)
        ref_schema, ref = _build(schema_cls, sketch_cls, family, keys, values)

        assert np.array_equal(np.asarray(sketch.table), np.asarray(ref.table))
        assert np.array_equal(idx, ref_schema.bucket_indices(query))
        assert np.array_equal(est, ref.estimate_batch(query))

    def test_incremental_updates_match(self, rng, kind, family, monkeypatch):
        """Chunked updates accumulate identically to one batch."""
        schema_cls, sketch_cls = SKETCHES[kind]
        keys, values = _stream(rng, n=3000)
        _, whole = _build(schema_cls, sketch_cls, family, keys, values)

        monkeypatch.setattr(_kernels, "_KERNELS", None)
        schema = schema_cls(depth=DEPTH, width=WIDTH, seed=SEED, family=family)
        chunked = sketch_cls(schema)
        for start in range(0, len(keys), 700):
            chunked.update_batch(
                keys[start : start + 700], values[start : start + 700]
            )
        assert np.array_equal(
            np.asarray(whole.table), np.asarray(chunked.table)
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_countmin_signed_median(rng, family, monkeypatch):
    """The median ESTIMATE and the row minimum, kernels vs NumPy."""
    keys, values = _stream(rng)
    query = rng.choice(keys, size=1500, replace=True)
    _, sketch = _build(CountMinSchema, CountMinSketch, family, keys, values)
    got = (sketch.estimate_batch(query), sketch.estimate_rows(query).min(axis=0))

    monkeypatch.setattr(_kernels, "_KERNELS", None)
    _, ref = _build(CountMinSchema, CountMinSketch, family, keys, values)
    assert np.array_equal(got[0], ref.estimate_batch(query))
    assert np.array_equal(got[1], ref.estimate_rows(query).min(axis=0))


@pytest.mark.parametrize("family", FAMILIES)
def test_kary_seal_transform(rng, family, monkeypatch):
    """The fused k-ary estimate folds the (v - total/K)/(1 - 1/K) seal
    transform into C; same IEEE op order as the NumPy per-row path."""
    keys, values = _stream(rng)
    query = np.unique(rng.choice(keys, size=2500, replace=True))
    _, sketch = _build(KArySchema, KArySketch, family, keys, values)
    est = sketch.estimate_batch(query)
    f2 = sketch.estimate_f2()

    monkeypatch.setattr(_kernels, "_KERNELS", None)
    _, ref = _build(KArySchema, KArySketch, family, keys, values)
    assert np.array_equal(est, ref.estimate_batch(query))
    assert f2 == ref.estimate_f2()


class TestKernelDispatch:
    def test_call_counters_tick(self, rng):
        kernels = get_kernels()
        if kernels is None:
            pytest.skip("no compiler available")
        keys, values = _stream(rng, n=1000)
        before = kernel_call_counts()
        _, tab = _build(KArySchema, KArySketch, "tabulation", keys, values)
        tab.estimate_batch(keys[:100])
        _, poly = _build(KArySchema, KArySketch, "polynomial", keys, values)
        poly.estimate_batch(keys[:100])
        _, cs = _build(CountSketchSchema, CountSketch, "polynomial", keys, values)
        after = kernel_call_counts()
        for name in ("tab_update", "tab_estimate", "poly_update",
                     "poly_estimate", "poly_update_signed"):
            assert after.get(name, 0) > before.get(name, 0), name

    def test_get_kernels_respects_disable_env(self, monkeypatch):
        # Reset the process-wide cache so the env check actually runs.
        monkeypatch.setattr(_kernels, "_KERNELS", _kernels._UNSET)
        monkeypatch.setenv("REPRO_NO_KERNELS", "1")
        assert get_kernels() is None
        monkeypatch.delenv("REPRO_NO_KERNELS")
        monkeypatch.setattr(_kernels, "_KERNELS", _kernels._UNSET)
        # The no-compiler CI spelling: CC set but empty.
        monkeypatch.setenv("CC", "   ")
        assert get_kernels() is None

    @pytest.mark.parametrize("depth", [1, 3, 4, 6])
    def test_odd_and_even_depth_medians(self, rng, depth):
        """np.median averages the middle pair at even depth; the C
        insertion-sort median must reproduce that exactly."""
        keys, values = _stream(rng, n=2000)
        schema = KArySchema(depth=depth, width=1024, seed=2)
        sketch = KArySketch(schema)
        sketch.update_batch(keys, values)
        est = sketch.estimate_batch(keys[:500])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_KERNELS", None)
            ref = KArySketch(KArySchema(depth=depth, width=1024, seed=2))
            ref.update_batch(keys, values)
            assert np.array_equal(est, ref.estimate_batch(keys[:500]))


#: ``(depth, width)`` of the recovery-walk masks: K = 2, and a table whose
#: last 8,192-cell fallback block is ragged.
RECOVER_SHAPES = {"k2": (3, 2), "ragged": (3, 2 * 8_192 // 3 + 11)}


@pytest.mark.parametrize("threshold", ["zero", "tie", "between"])
@pytest.mark.parametrize("shape", sorted(RECOVER_SHAPES))
def test_recover_mask_kernel_vs_blocked_fallback(rng, shape, threshold, monkeypatch):
    """The C mask, the blocked fallback and the whole-table formula agree.

    Cells are multiples of 0.75 around ``mean_share = 1.5``, so some
    estimates are exactly zero and, under ``"tie"``, some land exactly on
    the threshold from both signs; votes are negative, zero or live.
    """
    depth, width = RECOVER_SHAPES[shape]
    mean, denom = 1.5, 1.0 - 1.0 / width
    table = rng.integers(-8, 9, size=(depth, width)) * 0.75
    votes = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(depth, width))
    # A tie from above and from below, a -0.0 cell and an estimate of
    # exactly zero, each with a live vote.
    table.flat[:4] = [4.5, -1.5, -0.0, mean]
    votes.flat[:4] = 2.0
    magnitude = np.abs((table - mean) / denom)
    bound = {
        "zero": 0.0,
        "tie": float(np.abs((np.float64(4.5) - mean) / denom)),
        "between": 1.0,
    }[threshold]
    if threshold == "tie":
        assert (magnitude == bound).sum() > (table == 4.5).sum() > 0
    expected = (magnitude >= bound if bound > 0 else magnitude > 0) & (votes > 0)

    calls = kernel_call_counts().get("mv_recover", 0)
    got = mv_recover_mask(table, votes, mean, denom, bound)
    if get_kernels() is not None:
        assert kernel_call_counts()["mv_recover"] == calls + 1
    monkeypatch.setattr(_kernels, "_KERNELS", None)
    fallback = mv_recover_mask(table, votes, mean, denom, bound)
    for mask in (got, fallback):
        assert mask.dtype == np.bool_ and mask.shape == table.shape
        assert np.array_equal(mask, expected)
