"""Width-sliceable convolution.

The layer owns full-width weight storage; every forward/backward call
operates on an *active* ``(in_slice, out_slice)`` sub-block.  Sub-networks
therefore share weights by construction — "copy trained weights to the next
model" in the paper's Algorithm 1 is the aliasing itself.

The only way to select a sub-block is a
:class:`~repro.nn.context.ForwardContext` binding written by the caller
(:meth:`~repro.slimmable.slim_net.SlimmableConvNet.bind_spec`); a call with no binding runs at full
width.  The layer never changes, so concurrent forward passes may run
different widths against the same weight store.  The slices a forward used
are recorded on the context's tape, and backward scatters gradients into
exactly that region.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.context import ForwardContext
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.slimmable.spec import ChannelSlice
from repro.utils.rng import check_rng


class SlicedConv2d(Module):
    """2-D convolution whose in/out channel ranges are selected at call time.

    Args:
        max_in_channels: full-width input channel count.
        max_out_channels: full-width output channel count.
        kernel_size / stride / padding: square kernel side, stride and zero
            padding of :func:`repro.nn.functional.conv2d_forward`.
        slice_input: if False the layer always consumes the full input range
            (used for the first conv, which reads the raw image).
    """

    def __init__(
        self,
        max_in_channels: int,
        max_out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        *,
        slice_input: bool = True,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if max_in_channels <= 0 or max_out_channels <= 0:
            raise ValueError("channel counts must be positive")
        check_rng(rng, "SlicedConv2d")
        self.max_in_channels = max_in_channels
        self.max_out_channels = max_out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.slice_input = slice_input

        shape = (max_out_channels, max_in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng), name="weight")
        fan_in = max_in_channels * kernel_size * kernel_size
        self.bias = Parameter(init.bias_uniform((max_out_channels,), fan_in, rng), name="bias")

        self.full_in_slice = ChannelSlice(0, max_in_channels)
        self.full_out_slice = ChannelSlice(0, max_out_channels)

    # -- slice management ----------------------------------------------------

    def resolve_slices(
        self, in_slice: Optional[ChannelSlice], out_slice: ChannelSlice
    ) -> "tuple[ChannelSlice, ChannelSlice]":
        """Validate a slice pair, applying the ``slice_input`` rule.

        ``in_slice`` is ignored when ``slice_input`` is False (first layer).
        """
        if not self.slice_input or in_slice is None:
            in_slice = self.full_in_slice
        if in_slice.stop > self.max_in_channels:
            raise ValueError(f"in_slice {in_slice} exceeds {self.max_in_channels} channels")
        if out_slice.stop > self.max_out_channels:
            raise ValueError(f"out_slice {out_slice} exceeds {self.max_out_channels} channels")
        return in_slice, out_slice

    def active_weight(self, in_slice: ChannelSlice, out_slice: ChannelSlice) -> np.ndarray:
        """View of one weight sub-block (no copy)."""
        return self.weight.data[out_slice.as_slice(), in_slice.as_slice()]

    def active_bias(self, out_slice: ChannelSlice) -> np.ndarray:
        return self.bias.data[out_slice.as_slice()]

    # -- compute ---------------------------------------------------------------

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        in_slice = ctx.bound(self, "in_slice", self.full_in_slice)
        out_slice = ctx.bound(self, "out_slice", self.full_out_slice)
        if x.shape[1] != in_slice.width:
            raise ValueError(
                f"active in_slice {in_slice} expects {in_slice.width} channels, "
                f"input has {x.shape[1]}"
            )
        x_shape = x.shape
        x, w, b = F.cast_compute(
            self.training,
            x,
            self.active_weight(in_slice, out_slice),
            self.active_bias(out_slice),
        )
        y, cols = F.conv2d_forward(x, w, b, self.stride, self.padding)
        ctx.put(self, cols=cols, x_shape=x_shape, in_slice=in_slice, out_slice=out_slice)
        return y

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        state = ctx.require(self)
        in_slice, out_slice = state["in_slice"], state["out_slice"]
        w = np.ascontiguousarray(self.active_weight(in_slice, out_slice))
        grad_x, grad_w, grad_b = F.conv2d_backward(
            grad_output, state["cols"], state["x_shape"], w, self.stride, self.padding
        )
        full_grad_w = np.zeros_like(self.weight.data)
        full_grad_w[out_slice.as_slice(), in_slice.as_slice()] = grad_w
        self.weight.accumulate_grad(full_grad_w)
        full_grad_b = np.zeros_like(self.bias.data)
        full_grad_b[out_slice.as_slice()] = grad_b
        self.bias.accumulate_grad(full_grad_b)
        return grad_x

    def flops_per_image(
        self, in_h: int, in_w: int, in_slice: ChannelSlice, out_slice: ChannelSlice
    ) -> int:
        """MAC cost of one weight sub-block for one image."""
        out_h = F.conv_out_size(in_h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_out_size(in_w, self.kernel_size, self.stride, self.padding)
        macs = out_h * out_w * out_slice.width * in_slice.width * self.kernel_size**2
        return 2 * macs

    def __repr__(self) -> str:
        return (
            f"SlicedConv2d(max_in={self.max_in_channels}, max_out={self.max_out_channels}, "
            f"k={self.kernel_size})"
        )
