"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.context import ForwardContext
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import check_rng


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` over ``(N, in_features)`` inputs."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        check_rng(rng, "Linear")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng), name="weight")
        self.bias = Parameter(init.bias_uniform((out_features,), in_features, rng), name="bias")

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Linear expects (N, features), got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} features, got {x.shape[1]}")
        x, w, b = F.cast_compute(self.training, x, self.weight.data, self.bias.data)
        ctx.put(self, x=x)
        return x @ w.T + b

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        x = ctx.require(self)["x"]
        self.weight.accumulate_grad(grad_output.T @ x)
        self.bias.accumulate_grad(grad_output.sum(axis=0))
        return grad_output @ self.weight.data

    def flops_per_image(self) -> int:
        return 2 * self.in_features * self.out_features

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"
