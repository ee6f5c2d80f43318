"""Tests for image transforms."""

import numpy as np
import pytest

from repro.data.transforms import (
    AdditiveNoise,
    Compose,
    ContrastJitter,
    ElasticDistortion,
    GaussianBlur,
    RandomAffine,
    default_augmentation,
)
from repro.utils.rng import make_rng


def sample_image(rng) -> np.ndarray:
    img = np.zeros((28, 28))
    img[8:20, 10:18] = 1.0
    return img


class TestRandomAffine:
    def test_shape_preserved(self, rng):
        out = RandomAffine()(sample_image(rng), rng)
        assert out.shape == (28, 28)

    def test_identity_limit(self, rng):
        t = RandomAffine(max_rotation_deg=0, scale_range=(1.0, 1.0), max_shift=0)
        img = sample_image(rng)
        np.testing.assert_allclose(t(img, rng), img, atol=1e-8)

    def test_deterministic_per_seed(self):
        img = sample_image(make_rng(0))
        t = RandomAffine()
        out1 = t(img, make_rng(5))
        out2 = t(img, make_rng(5))
        np.testing.assert_array_equal(out1, out2)

    def test_ink_roughly_preserved(self, rng):
        t = RandomAffine(max_rotation_deg=10, scale_range=(0.95, 1.05), max_shift=1.5)
        img = sample_image(rng)
        out = t(img, rng)
        assert 0.7 * img.sum() < out.sum() < 1.3 * img.sum()

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomAffine(max_rotation_deg=-1)
        with pytest.raises(ValueError):
            RandomAffine(scale_range=(0.0, 1.0))


class TestNoiseAndBlur:
    def test_noise_keeps_range(self, rng):
        out = AdditiveNoise(std=0.3)(sample_image(rng), rng)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_noise_zero_std_identity(self, rng):
        img = sample_image(rng)
        np.testing.assert_array_equal(AdditiveNoise(std=0.0)(img, rng), img)

    def test_blur_smooths(self, rng):
        img = sample_image(rng)
        out = GaussianBlur(sigma_range=(1.0, 1.0))(img, rng)
        # Total variation shrinks under smoothing.
        tv = lambda a: np.abs(np.diff(a, axis=0)).sum() + np.abs(np.diff(a, axis=1)).sum()
        assert tv(out) < tv(img)

    def test_blur_preserves_mass_approximately(self, rng):
        img = sample_image(rng)
        out = GaussianBlur(sigma_range=(0.8, 0.8))(img, rng)
        assert out.sum() == pytest.approx(img.sum(), rel=0.05)


class TestElasticAndContrast:
    def test_elastic_shape_and_range(self, rng):
        out = ElasticDistortion(alpha=4.0)(sample_image(rng), rng)
        assert out.shape == (28, 28)
        assert np.isfinite(out).all()

    def test_elastic_alpha_zero_identity(self, rng):
        img = sample_image(rng)
        np.testing.assert_array_equal(ElasticDistortion(alpha=0.0)(img, rng), img)

    def test_contrast_preserves_extremes(self, rng):
        img = sample_image(rng)
        out = ContrastJitter()(img, rng)
        # 0 -> 0 and 1 -> 1 under gamma mapping.
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)


class TestCompose:
    def test_applies_in_order(self, rng):
        calls = []

        def t1(img, r):
            calls.append(1)
            return img

        def t2(img, r):
            calls.append(2)
            return img

        Compose([t1, t2])(sample_image(rng), rng)
        assert calls == [1, 2]

    def test_default_augmentation_runs(self, rng):
        out = default_augmentation()(sample_image(rng), rng)
        assert out.shape == (28, 28)
        assert np.isfinite(out).all()
