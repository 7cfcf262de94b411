"""Tests for the hash family registry and interface."""

import numpy as np
import pytest

from repro.hashing import HashFamily, make_family
from repro.hashing.carter_wegman import PolynomialHash, TwoUniversalHash
from repro.hashing.tabulation import TabulationHash


class TestMakeFamily:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("tabulation", TabulationHash),
            ("polynomial", PolynomialHash),
            ("two-universal", TwoUniversalHash),
        ],
    )
    def test_known_families(self, name, cls):
        h = make_family(name, 128, seed=0)
        assert isinstance(h, cls)
        assert h.num_buckets == 128
        assert h.seed == 0

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown hash family"):
            make_family("md5", 128)

    def test_error_lists_known_families(self):
        with pytest.raises(ValueError, match="tabulation"):
            make_family("nope", 128)


class TestHashFamilyInterface:
    def test_scalar_returns_int(self):
        h = make_family("tabulation", 64, seed=1)
        assert isinstance(h(42), int)

    def test_array_returns_int64_array(self):
        h = make_family("polynomial", 64, seed=1)
        out = h(np.arange(10, dtype=np.uint64))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.int64

    def test_num_buckets_validation(self):
        with pytest.raises(ValueError):
            make_family("polynomial", 0, seed=1)

    def test_families_disagree(self):
        """Different families with the same seed are different functions."""
        keys = np.arange(2000, dtype=np.uint64)
        tab = make_family("tabulation", 1024, seed=3)(keys)
        poly = make_family("polynomial", 1024, seed=3)(keys)
        assert not np.array_equal(tab, poly)

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            HashFamily(16, seed=0)

    @pytest.mark.parametrize("name", ["tabulation", "polynomial", "two-universal"])
    def test_with_buckets_equals_a_fresh_draw(self, name):
        keys = np.arange(0, 2**32, 2**32 // 3001, dtype=np.uint64)
        wide = make_family(name, 1000, seed=5)
        narrow = wide.with_buckets(37)
        assert narrow.num_buckets == 37 and wide.num_buckets == 1000
        np.testing.assert_array_equal(
            narrow(keys), make_family(name, 37, seed=5)(keys)
        )
        with pytest.raises(ValueError):
            wide.with_buckets(0)
