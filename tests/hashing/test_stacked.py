"""Equivalence tests: stacked hash evaluators vs per-row reference.

The stacked evaluators (and the optional compiled kernels behind them)
must be **bit-identical** to looping over the individual hash objects --
that is the contract every sketch family relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing import (
    LoopStackedHash,
    PolynomialHash,
    StackedPolynomialHash,
    StackedTabulationHash,
    TabulationHash,
    TwoUniversalHash,
    fused_signed_update,
    make_stacked,
)
from repro.hashing.stacked import StackedHash
from repro.hashing.tabulation import _draw_table

WIDTHS = [2, 512, 1000, 8192, 65536]
FAMILIES = {
    "tabulation": TabulationHash,
    "polynomial": PolynomialHash,
    "two-universal": TwoUniversalHash,
}


def _rows(family, num_buckets, depth=4, seed=99):
    cls = FAMILIES[family]
    return [cls(num_buckets, seed=seed + i) for i in range(depth)]


def _keys(rng, n=257):
    return rng.integers(0, 2**32, size=n, dtype=np.uint64)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("width", WIDTHS)
def test_hash_all_matches_per_row(family, width, rng):
    rows = _rows(family, width)
    stacked = make_stacked(rows, width)
    keys = _keys(rng)
    got = stacked.hash_all(keys)
    expected = np.stack([h.hash_array(keys) for h in rows])
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    assert np.all(got >= 0) and np.all(got < width)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_make_stacked_picks_specialized_class(family):
    rows = _rows(family, 512)
    stacked = make_stacked(rows, 512)
    if family == "tabulation":
        assert isinstance(stacked, StackedTabulationHash)
    else:
        assert isinstance(stacked, StackedPolynomialHash)


def test_make_stacked_mixed_families_falls_back(rng):
    rows = [TabulationHash(512, seed=1), PolynomialHash(512, seed=2)]
    stacked = make_stacked(rows, 512)
    assert isinstance(stacked, LoopStackedHash)
    keys = _keys(rng)
    expected = np.stack([h.hash_array(keys) for h in rows])
    assert np.array_equal(stacked.hash_all(keys), expected)


@pytest.mark.parametrize("width", [2, 512, 8192, 65536])
def test_tabulation_kernel_matches_numpy_fallback(width, rng):
    # Reduced uint16 strips (and hence the compiled kernel) only exist for
    # power-of-two widths up to 2**16; other widths take the u64 path.
    rows = _rows("tabulation", width)
    stacked = StackedTabulationHash(rows, width)
    keys = _keys(rng)
    via_numpy = stacked._hash_all_numpy(keys)
    assert np.array_equal(stacked.hash_all(keys), via_numpy)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("width", [512, 8192])
def test_scatter_add_matches_reference(family, width, rng):
    rows = _rows(family, width)
    stacked = make_stacked(rows, width)
    keys = _keys(rng)
    values = rng.normal(10.0, 5.0, size=len(keys))

    table = np.zeros((len(rows), width), dtype=np.float64)
    stacked.scatter_add(table, keys, values)

    expected = np.zeros_like(table)
    for i, h in enumerate(rows):
        np.add.at(expected[i], h.hash_array(keys), values)
    assert np.array_equal(table, expected)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("width", [512, 8192])
def test_gather_matches_reference(family, width, rng):
    rows = _rows(family, width)
    stacked = make_stacked(rows, width)
    table = rng.normal(0.0, 50.0, size=(len(rows), width))
    table = np.ascontiguousarray(table)
    keys = _keys(rng)
    got = stacked.gather(table, keys)
    expected = np.stack(
        [table[i, h.hash_array(keys)] for i, h in enumerate(rows)]
    )
    assert np.array_equal(got, expected)


def test_fused_signed_update_matches_reference(rng):
    width = 4096
    buckets = _rows("tabulation", width)
    signs = [TabulationHash(2, seed=500 + i) for i in range(len(buckets))]
    bucket_stack = make_stacked(buckets, width)
    sign_stack = make_stacked(signs, 2)
    keys = _keys(rng)
    values = rng.normal(10.0, 5.0, size=len(keys))

    table = np.zeros((len(buckets), width), dtype=np.float64)
    used_kernel = fused_signed_update(bucket_stack, sign_stack, table, keys, values)

    expected = np.zeros_like(table)
    for i, (bh, sh) in enumerate(zip(buckets, signs)):
        signed = (2.0 * sh.hash_array(keys) - 1.0) * values
        np.add.at(expected[i], bh.hash_array(keys), signed)
    if used_kernel:
        assert np.array_equal(table, expected)
    else:
        # Fallback declined: table must be untouched.
        assert not table.any()


def test_stacked_rejects_wide_keys(rng):
    rows = _rows("tabulation", 512)
    stacked = make_stacked(rows, 512)
    bad = np.array([2**32], dtype=np.uint64)
    with pytest.raises(ValueError, match="32 bits"):
        stacked.hash_all(bad)


def test_stacked_hash_abc_properties():
    rows = _rows("polynomial", 512, depth=3)
    stacked = make_stacked(rows, 512)
    assert isinstance(stacked, StackedHash)
    assert stacked.depth == 3
    assert stacked.num_buckets == 512


def test_draw_table_fills_all_64_bits():
    """Satellite fix: table entries must span the full uint64 range.

    The old fill used the default (exclusive) upper bound with int64
    semantics, so no entry ever had its top bit set and every hash output
    lost one bit of entropy.  A 4096-entry draw is astronomically unlikely
    to miss the top bit by chance (probability 2**-4096).
    """
    rng = np.random.default_rng(0)
    table = _draw_table(rng, 1 << 16)
    assert table.dtype == np.uint64
    assert bool((table >= np.uint64(1) << np.uint64(63)).any())


def test_tabulation_hash_tables_use_full_width():
    h = TabulationHash(512, seed=42)
    top = np.uint64(1) << np.uint64(63)
    assert bool((h._t0 >= top).any() or (h._t1 >= top).any()
                or (h._t2 >= top).any())
