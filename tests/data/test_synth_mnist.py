"""Tests for the synthetic MNIST generator."""

import hashlib

import numpy as np
import pytest

from repro.data.synth_mnist import (
    SynthMNISTConfig,
    generate_images,
    load_synth_mnist,
    render_digit,
)
from repro.utils.rng import make_rng


class TestRenderDigit:
    def test_shape_and_range(self, rng):
        img = render_digit(3, rng)
        assert img.shape == (28, 28)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_has_ink(self, rng):
        assert render_digit(8, rng).sum() > 5.0

    def test_digit_out_of_range_rejected(self, rng):
        for digit in (-1, 10):
            with pytest.raises(ValueError, match="0..9"):
                render_digit(digit, rng)

    def test_variability(self):
        rng = make_rng(0)
        a = render_digit(5, rng)
        b = render_digit(5, rng)
        assert not np.array_equal(a, b)


class TestGenerateImages:
    def test_shapes(self, rng):
        images, labels = generate_images(30, rng)
        assert images.shape == (30, 1, 28, 28)
        assert labels.shape == (30,)
        assert labels.dtype == np.int64

    def test_labels_in_range(self, rng):
        _, labels = generate_images(100, rng)
        assert labels.min() >= 0 and labels.max() <= 9

    def test_deterministic_per_seed(self):
        im1, l1 = generate_images(10, make_rng(7))
        im2, l2 = generate_images(10, make_rng(7))
        np.testing.assert_array_equal(im1, im2)
        np.testing.assert_array_equal(l1, l2)

    def test_invalid_num(self, rng):
        with pytest.raises(ValueError):
            generate_images(0, rng)


class TestLoadSynthMnist:
    def test_sizes_and_determinism(self):
        cfg = SynthMNISTConfig(num_train=50, num_test=20, seed=3)
        train1, test1 = load_synth_mnist(cfg)
        train2, test2 = load_synth_mnist(cfg)
        assert len(train1) == 50 and len(test1) == 20
        np.testing.assert_array_equal(train1.images, train2.images)
        np.testing.assert_array_equal(test1.labels, test2.labels)

    def test_bytes_are_pinned(self):
        """A generator change that moves a single byte moves every trained
        record; this digest was taken before the glyph art was cached."""
        digest = hashlib.sha256()
        for dataset in load_synth_mnist(SynthMNISTConfig(num_train=120, num_test=40, seed=3)):
            digest.update(dataset.images.tobytes())
            digest.update(dataset.labels.tobytes())
        assert digest.hexdigest() == (
            "be5f4b0593e9f19e604e7eaf362ae981f2873bc0684fb3c43a1ca8551ae288bd"
        )

    def test_train_test_disjoint_streams(self):
        cfg = SynthMNISTConfig(num_train=30, num_test=30, seed=3)
        train, test = load_synth_mnist(cfg)
        assert not np.array_equal(train.images[:10], test.images[:10])

    def test_different_seeds_differ(self):
        a, _ = load_synth_mnist(SynthMNISTConfig(num_train=10, num_test=10, seed=1))
        b, _ = load_synth_mnist(SynthMNISTConfig(num_train=10, num_test=10, seed=2))
        assert not np.array_equal(a.images, b.images)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthMNISTConfig(num_train=0)

    def test_classes_are_separable_by_template_matching(self):
        """The dataset must be learnable: nearest-mean-template classification
        on clean-ish data should beat chance by a wide margin."""
        train, test = load_synth_mnist(SynthMNISTConfig(num_train=400, num_test=100, seed=0))
        templates = np.stack(
            [train.images[train.labels == d].mean(axis=0)[0] for d in range(10)]
        )
        correct = 0
        for i in range(len(test)):
            dists = ((templates - test.images[i, 0]) ** 2).sum(axis=(1, 2))
            correct += int(dists.argmin() == test.labels[i])
        assert correct / len(test) > 0.5  # chance is 0.1
