"""Activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.context import ForwardContext
from repro.nn.module import Module


class ReLU(Module):
    """Elementwise rectified linear unit."""

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        y, mask = F.relu_forward(x, need_mask=ctx.recording)
        ctx.put(self, mask=mask)
        return y

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        return F.relu_backward(grad_output, ctx.require(self)["mask"])

    def __repr__(self) -> str:
        return "ReLU()"
