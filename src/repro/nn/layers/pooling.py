"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.context import ForwardContext
from repro.nn.module import Module


class MaxPool2d(Module):
    """Max pooling with square windows (no padding)."""

    def __init__(self, kernel_size: int, stride: int = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        y, argmax = F.maxpool2d_forward(
            x, self.kernel_size, self.stride, need_indices=ctx.recording
        )
        ctx.put(self, argmax=argmax, x_shape=x.shape)
        return y

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        state = ctx.require(self)
        return F.maxpool2d_backward(
            grad_output, state["argmax"], state["x_shape"], self.kernel_size, self.stride
        )

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"
