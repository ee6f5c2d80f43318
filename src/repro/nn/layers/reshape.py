"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.context import ForwardContext
from repro.nn.module import Module


class Flatten(Module):
    """Flatten all dims after the batch dim: ``(N, ...) -> (N, prod(...))``."""

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        ctx.put(self, x_shape=x.shape)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        return grad_output.reshape(ctx.require(self)["x_shape"])

    def __repr__(self) -> str:
        return "Flatten()"
