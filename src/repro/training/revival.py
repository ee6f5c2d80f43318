"""Dead-unit revival for upper sub-network retraining.

When the base Dynamic DNN trains, some channels of the upper blocks can die
(ReLU output identically zero on the data): the combined model simply
routes around them.  A standalone upper sub-network cannot — with a
4-kernel first layer, even a few dead kernels leave no gradient path and
Algorithm 1's "re-train the model" step (line 8) would start from an
untrainable state.

Revival is the standard remedy: before an upper stage starts, probe the
sub-network on a data batch and re-initialise the *trainable* dead channels
(kaiming weights, small positive bias).  Frozen channels are never touched,
so incremental ordering inside the upper pass is preserved.  This is an
implementation requirement of the paper's tiny model rather than a new
algorithm.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn import init as nn_init
from repro.nn.context import ForwardContext
from repro.slimmable.masks import RegionTracker
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import SubNetSpec
from repro.utils.logging import get_logger
from repro.utils.rng import check_rng

_LOGGER = get_logger("training.revival")
_REVIVED_BIAS = 0.01


def find_dead_channels(
    net: SlimmableConvNet, spec: SubNetSpec, probe: np.ndarray
) -> List[List[int]]:
    """Per conv layer: absolute channel indices with all-zero activation.

    ``probe`` is a small input batch; a channel is dead if its post-ReLU
    activation is zero everywhere on it.
    """
    dead: List[List[int]] = []
    act = probe
    ctx = ForwardContext(recording=False)
    net.bind_spec(spec, ctx)
    for i, conv in enumerate(net.convs):
        act = net.relus[i].forward(conv.forward(act, ctx), ctx)
        if i in net.pools:
            act = net.pools[i].forward(act, ctx)
        max_per_channel = act.max(axis=(0, 2, 3))
        offset = spec.conv_slices[i].start
        dead.append([offset + int(c) for c in np.flatnonzero(max_per_channel <= 0.0)])
    return dead


def revive_dead_channels(
    net: SlimmableConvNet,
    spec: SubNetSpec,
    probe: np.ndarray,
    rng: np.random.Generator,
    tracker: Optional[RegionTracker] = None,
) -> int:
    """Re-initialise trainable dead channels of ``spec``; returns the count.

    Layers are processed front to back, re-probing after each revival so
    downstream channels that were dead only because their inputs were dead
    get a chance to come back without re-initialisation.
    """
    check_rng(rng, "revive_dead_channels")
    revived = 0
    for layer_index in range(len(net.convs)):
        dead = find_dead_channels(net, spec, probe)[layer_index]
        if not dead:
            continue
        conv = net.convs[layer_index]
        ctx = ForwardContext(recording=False)
        net.bind_spec(spec, ctx)
        in_slice = ctx.bound(conv, "in_slice")
        for channel in dead:
            if tracker is not None and not _row_trainable(conv, channel, tracker):
                continue
            row_shape = (1, in_slice.width, conv.kernel_size, conv.kernel_size)
            fresh = nn_init.kaiming_uniform(row_shape, rng)[0]
            conv.weight.data[channel, in_slice.as_slice()] = fresh
            conv.weight.bump_version()
            conv.bias.data[channel] = _REVIVED_BIAS
            conv.bias.bump_version()
            revived += 1
    if revived:
        _LOGGER.info("revived %d dead channels before stage %s", revived, spec.name)
    return revived


def _row_trainable(conv, channel: int, tracker: RegionTracker) -> bool:
    """Whether any weight of a channel's row escaped earlier-stage freezing."""
    covered = tracker.covered(conv.weight)
    return bool((covered[channel] == 0).any())
