"""Tests for classification metrics."""

import numpy as np
import pytest

from repro.nn.metrics import accuracy


class TestAccuracy:
    def test_perfect(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_half(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_ties_go_to_the_lowest_class(self):
        logits = np.array([[2.0, 2.0, 1.0], [0.0, 3.0, 3.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 2])) == 0.0

    def test_matches_argmax_reference(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((50, 10))
        labels = rng.integers(0, 10, 50)
        expected = np.mean(logits.argmax(axis=1) == labels)
        assert accuracy(logits, labels) == pytest.approx(expected)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            accuracy(np.zeros(4), np.zeros(4, dtype=int))
