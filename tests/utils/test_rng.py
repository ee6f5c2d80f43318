"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import check_rng, derive_seed, make_rng


class TestMakeRng:
    def test_int_seed_is_deterministic(self):
        a = make_rng(42).random(8)
        b = make_rng(42).random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(8), make_rng(2).random(8))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        rng = make_rng(np.random.SeedSequence(7))
        assert isinstance(rng, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_positive_63_bit(self):
        value = derive_seed(123, "x", "y")
        assert 0 <= value < 2**63


class TestCheckRng:
    def test_accepts_generator(self):
        gen = make_rng(0)
        assert check_rng(gen, "here") is gen

    def test_rejects_int(self):
        with pytest.raises(TypeError, match="somewhere"):
            check_rng(42, "somewhere")

    def test_rejects_none(self):
        with pytest.raises(TypeError):
            check_rng(None, "x")
