"""Width-sliceable fully-connected classifier head.

The classifier always produces all classes (full output rows); only the
input-feature range is sliced.  Input features are laid out channel-major
(``C * H * W`` flattened), so a conv channel slice ``[a, b)`` maps to the
feature range ``[a * spatial, b * spatial)``.

Like :class:`~repro.slimmable.sliced_conv.SlicedConv2d`, the feature slice
comes only from a context binding; a call with no binding reads every
feature.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.context import ForwardContext
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.slimmable.spec import ChannelSlice
from repro.utils.rng import check_rng


class SlicedLinear(Module):
    """Linear layer with a selectable input-feature slice."""

    def __init__(
        self,
        max_in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if max_in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        check_rng(rng, "SlicedLinear")
        self.max_in_features = max_in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, max_in_features), rng), name="weight"
        )
        self.bias = Parameter(init.bias_uniform((out_features,), max_in_features, rng), name="bias")
        self.full_feature_slice = ChannelSlice(0, max_in_features)

    def resolve_feature_slice(self, feature_slice: ChannelSlice) -> ChannelSlice:
        if feature_slice.stop > self.max_in_features:
            raise ValueError(f"slice {feature_slice} exceeds {self.max_in_features} features")
        return feature_slice

    def active_weight(self, feature_slice: ChannelSlice) -> np.ndarray:
        return self.weight.data[:, feature_slice.as_slice()]

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        feature_slice = ctx.bound(self, "feature_slice", self.full_feature_slice)
        expected = feature_slice.width
        if x.ndim != 2 or x.shape[1] != expected:
            raise ValueError(
                f"active feature slice {feature_slice} expects (N, {expected}), "
                f"got {x.shape}"
            )
        x, w, b = F.cast_compute(
            self.training, x, self.active_weight(feature_slice), self.bias.data
        )
        ctx.put(self, x=x, feature_slice=feature_slice)
        return x @ w.T + b

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        state = ctx.require(self)
        feature_slice = state["feature_slice"]
        full_grad_w = np.zeros_like(self.weight.data)
        full_grad_w[:, feature_slice.as_slice()] = grad_output.T @ state["x"]
        self.weight.accumulate_grad(full_grad_w)
        self.bias.accumulate_grad(grad_output.sum(axis=0))
        return grad_output @ self.active_weight(feature_slice)

    def flops_per_image(self, feature_slice: ChannelSlice) -> int:
        return 2 * feature_slice.width * self.out_features

    def __repr__(self) -> str:
        return f"SlicedLinear(max_in={self.max_in_features}, out={self.out_features})"
