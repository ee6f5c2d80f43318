"""Central-difference gradient checking helpers shared by nn tests."""

from __future__ import annotations

import numpy as np

from repro.nn.context import ForwardContext


def numerical_grad_wrt_array(f, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        f_plus = f()
        array[idx] = original - eps
        f_minus = f()
        array[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_layer_gradients(layer, x: np.ndarray, rng, atol: float = 1e-6, bind=None) -> None:
    """Validate a layer's input and parameter gradients numerically.

    Uses the scalar objective ``sum(forward(x) * g)`` for a fixed random
    ``g``, whose gradient through ``backward`` is exactly ``g``.  ``bind``,
    if given, writes the call's bindings (e.g. a sub-network's slices) into
    each fresh context; every parameter is checked whole, so gradient that
    leaks outside the bound region fails too.
    """

    def context(recording: bool) -> ForwardContext:
        ctx = ForwardContext(recording=recording)
        if bind is not None:
            bind(ctx)
        return ctx

    out = layer(x, context(False))
    g = rng.standard_normal(out.shape)

    def objective() -> float:
        return float((layer(x, context(False)) * g).sum())

    layer.zero_grad()
    ctx = context(True)
    layer(x, ctx)
    grad_x = layer.backward(g, ctx)

    num_grad_x = numerical_grad_wrt_array(objective, x)
    np.testing.assert_allclose(grad_x, num_grad_x, atol=atol, rtol=1e-4)

    for param in layer.parameters():
        num_grad = numerical_grad_wrt_array(objective, param.data)
        np.testing.assert_allclose(param.grad, num_grad, atol=atol, rtol=1e-4)
