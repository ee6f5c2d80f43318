"""Tests for loss functions, including numerical gradient verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.loss import SoftmaxCrossEntropy
from repro.utils.rng import make_rng
from tests.nn.gradcheck import numerical_grad_wrt_array


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = SoftmaxCrossEntropy()(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_log_k(self):
        k = 10
        logits = np.zeros((4, k))
        loss, _ = SoftmaxCrossEntropy()(logits, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(k))

    def test_gradient_matches_numerical(self):
        rng = make_rng(0)
        logits = rng.standard_normal((3, 5))
        labels = np.array([0, 2, 4])
        loss_fn = SoftmaxCrossEntropy()
        _, grad = loss_fn(logits, labels)
        num = numerical_grad_wrt_array(lambda: loss_fn(logits, labels)[0], logits)
        np.testing.assert_allclose(grad, num, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self):
        rng = make_rng(1)
        logits = rng.standard_normal((6, 4))
        _, grad = SoftmaxCrossEntropy()(logits, np.array([0, 1, 2, 3, 0, 1]))
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(6), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1e4, 0.0, -1e4], [-1e4, 1e4, 1e4]])
        loss, grad = SoftmaxCrossEntropy()(logits, np.array([2, 0]))
        assert np.isfinite(loss) and np.isfinite(grad).all()
        # Each row puts (almost) all mass 1e4 or 2e4 away from its label.
        assert loss == pytest.approx((2e4 + (2e4 + np.log(2))) / 2)

    def test_shift_invariance(self):
        rng = make_rng(2)
        logits = rng.standard_normal((4, 6))
        labels = np.array([5, 0, 3, 3])
        shifts = rng.standard_normal((4, 1)) * 50
        loss, grad = SoftmaxCrossEntropy()(logits, labels)
        shifted_loss, shifted_grad = SoftmaxCrossEntropy()(logits + shifts, labels)
        assert shifted_loss == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(shifted_grad, grad, atol=1e-15)

    def test_gradient_is_softmax_minus_onehot_over_n(self):
        rng = make_rng(3)
        logits = rng.standard_normal((5, 4))
        labels = np.array([1, 1, 0, 3, 2])
        _, grad = SoftmaxCrossEntropy()(logits, labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert probs.sum(axis=1) == pytest.approx(np.ones(5))
        np.testing.assert_allclose(grad, (probs - np.eye(4)[labels]) / 5, atol=1e-15)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy()(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy()(np.zeros((2, 3)), np.array([-1, 0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy()(np.zeros((2, 3, 1)), np.array([0, 1]))
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy()(np.zeros((2, 3)), np.array([0, 1, 2]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8), k=st.integers(2, 12))
    def test_loss_is_negative_log_prob(self, seed, n, k):
        rng = make_rng(seed)
        logits = rng.standard_normal((n, k)) * 3
        labels = rng.integers(0, k, n)
        loss, _ = SoftmaxCrossEntropy()(logits, labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(n), labels]).mean()
        assert loss == pytest.approx(expected, rel=1e-9)
        assert loss >= 0.0
