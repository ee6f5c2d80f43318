"""ForwardContext semantics: tape, bindings, calls without a context."""

import numpy as np
import pytest

from repro.nn.context import ForwardContext
from repro.slimmable.sliced_linear import SlicedLinear
from repro.utils.rng import make_rng


class TestTape:
    def test_put_and_require(self):
        ctx = ForwardContext()
        marker = object()
        ctx.put(marker, x=1, y=2)
        assert ctx.require(marker) == {"x": 1, "y": 2}

    def test_non_recording_drops_state(self):
        ctx = ForwardContext(recording=False)
        marker = object()
        ctx.put(marker, x=1)
        assert ctx.get(marker) is None
        with pytest.raises(RuntimeError, match="backward called before forward"):
            ctx.require(marker)

    def test_put_overwrites_previous_call(self):
        ctx = ForwardContext()
        marker = object()
        ctx.put(marker, x=1)
        ctx.put(marker, x=2)
        assert ctx.require(marker) == {"x": 2}

    def test_clear(self):
        ctx = ForwardContext()
        marker = object()
        ctx.put(marker, x=1)
        ctx.bind(marker, w=3)
        ctx.clear()
        assert ctx.get(marker) is None
        assert ctx.bound(marker, "w") is None


class TestBindings:
    def test_bind_and_bound(self):
        ctx = ForwardContext()
        marker = object()
        assert ctx.bound(marker, "slice", "default") == "default"
        ctx.bind(marker, slice="a")
        ctx.bind(marker, other="b")  # merges, does not replace
        assert ctx.bound(marker, "slice") == "a"
        assert ctx.bound(marker, "other") == "b"

    def test_bindings_survive_non_recording(self):
        ctx = ForwardContext(recording=False)
        marker = object()
        ctx.bind(marker, slice="a")
        assert ctx.bound(marker, "slice") == "a"


class TestImplicitShim:
    """A call without a context leaves nothing behind for a backward to find."""

    def test_backward_without_any_forward_raises(self, rng):
        net = SlicedLinear(4, 3, rng=rng)
        net(rng.standard_normal((2, 4)))  # records nothing anywhere
        with pytest.raises(RuntimeError, match="backward called before forward"):
            net.backward(np.ones((2, 3)), ForwardContext())

    def test_explicit_contexts_are_independent(self, rng):
        """Two interleaved explicit contexts keep separate tapes over one net."""
        net = SlicedLinear(4, 4, rng=rng)
        x_a = rng.standard_normal((2, 4))
        x_b = rng.standard_normal((3, 4))
        ctx_a, ctx_b = ForwardContext(), ForwardContext()
        y_a = net.forward(x_a, ctx_a)
        y_b = net.forward(x_b, ctx_b)  # would clobber x_a under cache-on-self
        net.zero_grad()
        grad_a = net.backward(np.ones_like(y_a), ctx_a)
        grad_b = net.backward(np.ones_like(y_b), ctx_b)
        assert grad_a.shape == x_a.shape
        assert grad_b.shape == x_b.shape

        # Gradient from ctx_a must match a fresh un-interleaved run.
        fresh = ForwardContext()
        net.forward(x_a, fresh)
        net.zero_grad()
        expected = net.backward(np.ones_like(y_a), fresh)
        np.testing.assert_array_equal(grad_a, expected)
