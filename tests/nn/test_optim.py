"""Tests for the SGD optimizer."""

import numpy as np
import pytest

from repro.nn.optim.sgd import SGD
from repro.nn.parameter import Parameter


def make_param(values) -> Parameter:
    return Parameter(np.array(values, dtype=float))


class TestSGD:
    def test_plain_step(self):
        p = make_param([1.0, 2.0])
        p.grad[:] = [0.5, -0.5]
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad[:] = [1.0]
        opt.step()  # v=1, w=-1
        p.grad[:] = [1.0]
        opt.step()  # v=1.5, w=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_freeze_mask_blocks_update(self):
        p = make_param([1.0, 1.0])
        p.set_freeze_mask(np.array([1.0, 0.0]))
        p.grad[:] = [1.0, 1.0]
        SGD([p], lr=0.5).step()
        np.testing.assert_allclose(p.data, [0.5, 1.0])

    def test_requires_grad_false_skips(self):
        p = make_param([1.0])
        p.requires_grad = False
        p.grad[:] = [1.0]
        SGD([p], lr=1.0).step()
        assert p.data[0] == 1.0

    def test_validation(self):
        p = make_param([1.0])
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"lr": -0.1}, {"lr": 0.1, "momentum": -0.1}],
        ids=["negative-lr", "negative-momentum"],
    )
    def test_negative_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], **kwargs)

    @pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9])
    def test_matches_the_documented_update_rule(self, momentum):
        # Five steps under a partial freeze mask against the docstring's
        # rule, v = m*v + grad, w -= lr*v, masked per entry.
        rng = np.random.default_rng(7)
        mask = np.array([1.0, 0.0, 1.0, 1.0])
        p = make_param(rng.standard_normal(4))
        p.set_freeze_mask(mask)
        opt = SGD([p], lr=0.05, momentum=momentum)
        w = p.data.copy()
        v = np.zeros(4)
        for _ in range(5):
            grad = rng.standard_normal(4)
            opt.zero_grad()
            p.grad[:] = grad
            opt.step()
            v = momentum * v + grad * mask
            w = w - 0.05 * v
            np.testing.assert_allclose(p.data, w, rtol=1e-12, atol=1e-15)
        assert p.data[1] == w[1]

    def test_zero_grad_clears_every_parameter(self):
        params = [make_param([1.0, 2.0]), make_param([3.0])]
        for p in params:
            p.grad[:] = 5.0
        SGD(params, lr=0.1).zero_grad()
        assert all(not p.grad.any() for p in params)

    def test_converges_on_quadratic(self):
        # Minimise f(w) = ||w - target||^2 by explicit gradient steps.
        target = np.array([3.0, -2.0])
        p = make_param([0.0, 0.0])
        opt = SGD([p], lr=0.05, momentum=0.8)
        for _ in range(200):
            opt.zero_grad()
            p.grad[:] = 2 * (p.data - target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)
