"""Tests for the Module/Sequential machinery."""

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    Flatten,
    ForwardContext,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.parameter import Parameter
from repro.utils import make_rng


def small_mlp(rng):
    return Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng))


class TestRegistration:
    def test_attribute_assignment_registers(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2, rng=rng)
                self.w = Parameter(np.zeros((2,)), name="w")

        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert "w" in names
        assert "fc.weight" in names and "fc.bias" in names

    def test_duplicate_registration_rejected(self, rng):
        m = Module()
        m.register_parameter("p", Parameter(np.zeros(2)))
        with pytest.raises(ValueError):
            m.register_parameter("p", Parameter(np.zeros(2)))

    def test_parameters_deduplicated(self, rng):
        shared = Linear(2, 2, rng=rng)

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = shared
                self.b = shared

        assert len(Net().parameters()) == 2  # weight + bias once


class TestTrainEval:
    def test_mode_propagates(self, rng):
        net = small_mlp(rng)
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())


class TestStateDict:
    def test_roundtrip(self, rng):
        net = small_mlp(rng)
        state = net.state_dict()
        net2 = small_mlp(make_rng(99))
        net2.load_state_dict(state)
        x = rng.standard_normal((2, 4))
        np.testing.assert_array_equal(net(x), net2(x))

    def test_state_dict_is_a_copy(self, rng):
        net = small_mlp(rng)
        state = net.state_dict()
        state["0.weight"] += 100.0
        assert not np.allclose(net.layers[0].weight.data, state["0.weight"])

    def test_strict_mismatch_raises(self, rng):
        net = small_mlp(rng)
        with pytest.raises(KeyError):
            net.load_state_dict({"bogus": np.zeros(2)})

    def test_shape_mismatch_raises(self, rng):
        net = small_mlp(rng)
        state = net.state_dict()
        state["0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_non_strict_partial_load(self, rng):
        net = small_mlp(rng)
        original = net.layers[2].weight.data.copy()
        net.load_state_dict({"0.weight": np.zeros((8, 4))}, strict=False)
        np.testing.assert_array_equal(net.layers[0].weight.data, 0.0)
        np.testing.assert_array_equal(net.layers[2].weight.data, original)


class TestSequential:
    def test_forward_backward_chain(self, rng):
        net = Sequential(
            Conv2d(1, 2, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(2 * 4 * 4, 3, rng=rng),
        )
        x = rng.standard_normal((2, 1, 8, 8))
        ctx = ForwardContext()
        y = net(x, ctx)
        assert y.shape == (2, 3)
        grad = net.backward(np.ones_like(y), ctx)
        assert grad.shape == x.shape

    def test_append_and_indexing(self, rng):
        net = Sequential(Linear(2, 2, rng=rng))
        net.append(ReLU())
        assert len(net) == 2
        assert isinstance(net[1], ReLU)

    def test_zero_grad_clears_all(self, rng):
        net = small_mlp(rng)
        ctx = ForwardContext()
        y = net(rng.standard_normal((2, 4)), ctx)
        net.backward(np.ones_like(y), ctx)
        assert any(p.grad.any() for p in net.parameters())
        net.zero_grad()
        assert all(not p.grad.any() for p in net.parameters())

    def test_num_parameters(self, rng):
        net = small_mlp(rng)
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3


class TestIdentity:
    def test_passthrough(self, rng):
        x = rng.standard_normal((3, 3))
        ident = Identity()
        np.testing.assert_array_equal(ident(x), x)
        np.testing.assert_array_equal(ident.backward(x, ForwardContext()), x)
