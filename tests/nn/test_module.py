"""Tests for the Module machinery."""

import numpy as np
import pytest

from repro.nn.context import ForwardContext
from repro.nn.layers.activation import ReLU
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.slimmable.sliced_linear import SlicedLinear
from repro.utils.rng import make_rng


class MLP(Module):
    """Two sliced linears around a ReLU, run at full width."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = SlicedLinear(4, 8, rng=rng)
        self.act = ReLU()
        self.fc2 = SlicedLinear(8, 3, rng=rng)

    def forward(self, x, ctx):
        return self.fc2.forward(self.act.forward(self.fc1.forward(x, ctx), ctx), ctx)

    def backward(self, grad, ctx):
        return self.fc1.backward(self.act.backward(self.fc2.backward(grad, ctx), ctx), ctx)


class TestRegistration:
    def test_attribute_assignment_registers(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc = SlicedLinear(2, 2, rng=rng)
                self.w = Parameter(np.zeros((2,)), name="w")

        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert "w" in names
        assert "fc.weight" in names and "fc.bias" in names

    def test_duplicate_registration_rejected(self):
        m = Module()
        m.register_module("relu", ReLU())
        with pytest.raises(ValueError):
            m.register_module("relu", ReLU())

    def test_parameters_deduplicated(self, rng):
        shared = SlicedLinear(2, 2, rng=rng)

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = shared
                self.b = shared

        assert len(Net().parameters()) == 2  # weight + bias once


class TestTrainEval:
    def test_mode_propagates(self, rng):
        net = MLP(rng)
        net.train(False)
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())


class TestStateDict:
    def test_roundtrip(self, rng):
        net = MLP(rng)
        state = net.state_dict()
        net2 = MLP(make_rng(99))
        net2.load_state_dict(state)
        x = rng.standard_normal((2, 4))
        np.testing.assert_array_equal(net(x), net2(x))

    def test_state_dict_is_a_copy(self, rng):
        net = MLP(rng)
        state = net.state_dict()
        state["fc1.weight"] += 100.0
        assert not np.allclose(net.fc1.weight.data, state["fc1.weight"])

    def test_strict_mismatch_raises(self, rng):
        net = MLP(rng)
        with pytest.raises(KeyError):
            net.load_state_dict({"bogus": np.zeros(2)})

    def test_unexpected_key_beside_a_full_state_raises(self, rng):
        net = MLP(rng)
        state = net.state_dict()
        state["extra.weight"] = np.zeros(2)
        with pytest.raises(KeyError, match="unexpected=\\['extra.weight'\\]"):
            net.load_state_dict(state)

    def test_partial_state_raises_and_writes_nothing(self, rng):
        net = MLP(rng)
        before = net.fc2.weight.data.copy()
        with pytest.raises(KeyError, match="missing"):
            net.load_state_dict({"fc2.weight": np.zeros_like(before)})
        np.testing.assert_array_equal(net.fc2.weight.data, before)

    def test_shape_mismatch_raises(self, rng):
        net = MLP(rng)
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

class TestGradState:
    def test_zero_grad_clears_all(self, rng):
        net = MLP(rng)
        ctx = ForwardContext()
        y = net(rng.standard_normal((2, 4)), ctx)
        net.backward(np.ones_like(y), ctx)
        assert any(p.grad.any() for p in net.parameters())
        net.zero_grad()
        assert all(not p.grad.any() for p in net.parameters())

    def test_num_parameters(self, rng):
        net = MLP(rng)
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3
