"""Tests for deterministic seed derivation."""

import numpy as np
import pytest

from repro.hashing.seeds import (
    MAX_MASTER_SEED,
    derive_seeds,
    validate_master_seed,
)


class TestDeriveSeeds:
    def test_deterministic(self):
        assert derive_seeds(42, 5) == derive_seeds(42, 5)

    def test_prefix_stability(self):
        assert derive_seeds(42, 8)[:3] == derive_seeds(42, 3)

    def test_distinct_within_family(self):
        seeds = derive_seeds(7, 50)
        assert len(set(seeds)) == 50

    def test_distinct_across_masters(self):
        assert derive_seeds(1, 5) != derive_seeds(2, 5)

    def test_zero_count(self):
        assert derive_seeds(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_seeds(1, -1)

    def test_none_master_uses_entropy(self):
        # Two entropy draws almost surely differ.
        assert derive_seeds(None, 4) != derive_seeds(None, 4)

    def test_seeds_fit_in_63_bits(self):
        for seed in derive_seeds(123, 20):
            assert 0 <= seed < 2**63


class TestValidateMasterSeed:
    """Seed domain enforcement: early, symmetric, and with a clear message.

    Before this guard, a negative seed failed deep inside numpy with a
    cryptic message, and an oversized one built a working schema whose
    ``dumps`` later crashed with a raw ``struct.error`` -- asymmetric and
    far from the mistake.
    """

    def test_none_passes_through(self):
        assert validate_master_seed(None) is None

    def test_valid_bounds(self):
        assert validate_master_seed(0) == 0
        assert validate_master_seed(MAX_MASTER_SEED) == MAX_MASTER_SEED

    def test_numpy_integers_accepted(self):
        assert validate_master_seed(np.int64(41)) == 41
        assert isinstance(validate_master_seed(np.int64(41)), int)

    def test_negative_rejected_with_clear_message(self):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            validate_master_seed(-5)

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            validate_master_seed(2**63)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="int or None"):
            validate_master_seed(1.5)
        with pytest.raises(ValueError, match="int or None"):
            validate_master_seed("7")

    def test_derive_seeds_validates(self):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            derive_seeds(-1, 3)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            derive_seeds(2**64, 3)

    @pytest.mark.parametrize("bad_seed", [-5, 2**63, 2**64])
    def test_schema_construction_validates(self, bad_seed):
        """The asymmetry fix: every schema kind fails at construction."""
        from repro.sketch import CountMinSchema, CountSketchSchema, KArySchema

        for schema_cls in (KArySchema, CountMinSchema, CountSketchSchema):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
                schema_cls(depth=2, width=64, seed=bad_seed)

    def test_valid_schema_seed_serializes(self):
        """Symmetric: what constructs also serializes."""
        from repro.sketch import KArySchema
        from repro.sketch.serialization import dumps, loads

        schema = KArySchema(depth=2, width=64, seed=MAX_MASTER_SEED)
        sketch = schema.from_items([1, 2], [1.0, 2.0])
        assert loads(dumps(sketch)).schema.seed == MAX_MASTER_SEED
