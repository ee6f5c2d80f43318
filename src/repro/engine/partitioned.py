"""Exact width-partitioned forward computation (High-Accuracy mode).

Each device computes *its rows* of every layer from the *full* input
activation; halves are then exchanged to reassemble the full activation for
the next layer.  Because convolution output channels are independent given
the full input, the reassembled result is bit-identical to single-device
execution — asserted by integration tests.

These are stateless kernels over a net's weights; the protocol layers
(:mod:`repro.distributed.master` / ``worker``) drive them across a
transport, and :func:`partitioned_forward_reference` composes them locally
for correctness checks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.comm.wire import wire_dtype
from repro.nn import functional as F
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import ChannelSlice, SubNetSpec


def conv_block_half(
    net: SlimmableConvNet,
    layer_index: int,
    x_full: np.ndarray,
    out_slice: ChannelSlice,
    in_slice: Optional[ChannelSlice] = None,
) -> np.ndarray:
    """One device's half of conv block ``layer_index`` (conv+ReLU+pool).

    Args:
        x_full: the full input activation of this layer (both halves).
        out_slice: the output-channel rows this device owns.
        in_slice: the input-channel range of the active combined model
            (defaults to all channels of ``x_full``).
    """
    conv = net.convs[layer_index]
    if in_slice is None:
        in_slice = ChannelSlice(0, x_full.shape[1])
    if x_full.shape[1] != in_slice.width:
        raise ValueError(
            f"layer {layer_index}: input has {x_full.shape[1]} channels, "
            f"in_slice {in_slice} expects {in_slice.width}"
        )
    if layer_index == 0:
        weight = conv.weight.data[out_slice.as_slice(), : x_full.shape[1]]
    else:
        weight = conv.weight.data[out_slice.as_slice(), in_slice.as_slice()]
    bias = conv.bias.data[out_slice.as_slice()]
    x_full, weight, bias = F.cast_compute(False, x_full, weight, bias)
    y, _ = F.conv2d_forward(x_full, weight, bias, conv.stride, conv.padding)
    y, _ = F.relu_forward(y, need_mask=False)
    if layer_index in net.pools:
        pool = net.pools[layer_index]
        y, _ = F.maxpool2d_forward(y, pool.kernel_size, pool.stride, need_indices=False)
    return y


def fc_partial(
    net: SlimmableConvNet,
    features: np.ndarray,
    feature_slice: ChannelSlice,
    include_bias: bool,
) -> np.ndarray:
    """Partial logits from one device's slice of the flattened features."""
    if features.ndim != 2 or features.shape[1] != feature_slice.width:
        raise ValueError(
            f"features shape {features.shape} does not match slice {feature_slice}"
        )
    weight = net.classifier.weight.data[:, feature_slice.as_slice()]
    features, weight, bias = F.cast_compute(
        False, features, weight, net.classifier.bias.data
    )
    logits = features @ weight.T
    if include_bias:
        logits = logits + bias
    return logits


def flatten_channel_block(activation: np.ndarray) -> np.ndarray:
    """Flatten a (N, C_block, H, W) half-activation to (N, C_block*H*W)."""
    return activation.reshape(activation.shape[0], -1)


def feature_slice_for_block(
    net: SlimmableConvNet, channel_slice: ChannelSlice
) -> ChannelSlice:
    """Classifier feature columns corresponding to a channel block."""
    return net.feature_slice_for(channel_slice)


def partitioned_forward_reference(
    net: SlimmableConvNet,
    spec: SubNetSpec,
    split: int,
    x: np.ndarray,
) -> Tuple[np.ndarray, List[int]]:
    """Single-process reference of the two-device HA computation.

    Returns ``(logits, exchanged_bytes_per_step)`` so tests can check both
    numerical equivalence with the monolithic forward and agreement with the
    cost model's exchange accounting.  Exchange bytes use the itemsize the
    halves actually take on the device boundary (the policy wire dtype via
    :func:`~repro.comm.wire.cast_for_wire`) — not a hardcoded float32 — so
    the accounting stays honest under a full-precision wire policy.
    """
    if not spec.is_lower():
        raise ValueError("HA partitioning applies to combined (lower-anchored) specs")
    lower = ChannelSlice(0, split)
    itemsize = wire_dtype().itemsize
    exchanged: List[int] = []
    current = x
    in_slice: Optional[ChannelSlice] = None
    for i, out_slice in enumerate(spec.conv_slices):
        upper = ChannelSlice(split, out_slice.stop)
        half_m = conv_block_half(net, i, current, lower, in_slice)
        half_w = conv_block_half(net, i, current, upper, in_slice)
        current = np.concatenate([half_m, half_w], axis=1)
        bigger = max(half_m[0].size, half_w[0].size)
        exchanged.append(bigger * itemsize * x.shape[0])
        in_slice = out_slice

    feats_m = flatten_channel_block(current[:, :split])
    feats_w = flatten_channel_block(current[:, split:])
    slice_m = feature_slice_for_block(net, lower)
    slice_w = feature_slice_for_block(net, ChannelSlice(split, spec.last_slice.stop))
    logits = fc_partial(net, feats_m, slice_m, include_bias=True) + fc_partial(
        net, feats_w, slice_w, include_bias=False
    )
    exchanged.append(logits.shape[1] * itemsize * x.shape[0])
    return logits, exchanged
