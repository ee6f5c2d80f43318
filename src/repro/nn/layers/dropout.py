"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.context import ForwardContext
from repro.nn.module import Module
from repro.utils.rng import check_rng


class Dropout(Module):
    """Inverted dropout: active only in training mode.

    At train time each activation is zeroed with probability ``p`` and the
    survivors are scaled by ``1/(1-p)`` so that eval mode is the identity.
    The mask drawn at forward time is recorded on the context (``None``
    when forward was the identity); like every layer, backward raises if
    the context holds no recorded forward state.
    """

    def __init__(self, p: float, *, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        check_rng(rng, "Dropout")
        self.p = p
        self.rng = rng

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        if not self.training or self.p == 0.0:
            ctx.put(self, mask=None)
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep) / keep
        ctx.put(self, mask=mask)
        return x * mask

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        mask = ctx.require(self)["mask"]
        if mask is None:  # eval mode or p == 0: forward was the identity
            return grad_output
        return grad_output * mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
