"""Standard (non-slimmable) 2D convolution layer."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.context import ForwardContext
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import check_rng


class Conv2d(Module):
    """2D convolution over NCHW inputs.

    Args:
        in_channels: input channel count.
        out_channels: number of kernels.
        kernel_size: square kernel side.
        stride: spatial stride.
        padding: zero padding on all sides.
        rng: generator for weight init.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid kernel/stride/padding")
        check_rng(rng, "Conv2d")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng), name="weight")
        fan_in = in_channels * kernel_size * kernel_size
        self.bias = Parameter(init.bias_uniform((out_channels,), fan_in, rng), name="bias")

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        x_shape = x.shape
        x, w, b = F.cast_compute(self.training, x, self.weight.data, self.bias.data)
        y, cols = F.conv2d_forward(x, w, b, self.stride, self.padding)
        ctx.put(self, cols=cols, x_shape=x_shape)
        return y

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        state = ctx.require(self)
        grad_x, grad_w, grad_b = F.conv2d_backward(
            grad_output,
            state["cols"],
            state["x_shape"],
            self.weight.data,
            self.stride,
            self.padding,
        )
        self.weight.accumulate_grad(grad_w)
        self.bias.accumulate_grad(grad_b)
        return grad_x

    def flops_per_image(self, in_h: int, in_w: int) -> int:
        """Multiply-accumulate count for one image (used by the cost model)."""
        out_h = F.conv_out_size(in_h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_out_size(in_w, self.kernel_size, self.stride, self.padding)
        macs = out_h * out_w * self.out_channels * self.in_channels * self.kernel_size**2
        return 2 * macs

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )
