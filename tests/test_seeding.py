"""Seed derivation: stability, distinctness, and type canonicalization."""

import numpy as np
import pytest

from genil.seeding import derive_seed


def test_derive_seed_is_stable():
    assert derive_seed(3, "stage", 1) == derive_seed(3, "stage", 1)


def test_derive_seed_fits_numpy_seed_range():
    for base in (0, 1, 2**31, 12345):
        s = derive_seed(base, "x")
        assert 0 <= s < 2**63
        np.random.default_rng(s)  # must be accepted as a seed


def test_different_paths_give_different_seeds():
    seen = {
        derive_seed(0, "a"),
        derive_seed(0, "b"),
        derive_seed(0, "a", 0),
        derive_seed(0, "a", 1),
        derive_seed(1, "a"),
        derive_seed(0),
    }
    assert len(seen) == 6


def test_equal_valued_int_and_float_parts_collapse():
    # canonicalization is by value: 1 and 1.0 both render as "1"
    assert derive_seed(0, 1) == derive_seed(0, 1.0)
    assert derive_seed(0, 2.5) != derive_seed(0, 2)


def test_float_parts_use_full_precision():
    assert derive_seed(0, 0.1) != derive_seed(0, 0.1 + 1e-16)
    assert derive_seed(0, 0.30000000000000004) != derive_seed(0, 0.3)


def test_bool_parts_rejected():
    with pytest.raises(TypeError):
        derive_seed(0, True)
