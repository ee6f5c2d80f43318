"""Slimmable convolutional network and sub-network views.

:class:`SlimmableConvNet` is the weight container: a stack of
``SlicedConv2d (+ReLU, +optional MaxPool)`` blocks followed by a
:class:`SlicedLinear` classifier.  A :class:`SubNetworkView` binds the
container to one :class:`~repro.slimmable.spec.SubNetSpec`.  All views
alias the same storage — that aliasing is the paper's weight sharing.

A sub-network is selected in one way only: :meth:`SlimmableConvNet.bind_spec`
writes its per-layer slices into a :class:`~repro.nn.context.ForwardContext`
as call-scoped bindings.  The container is never mutated by a call, so
concurrent calls can run different widths against one shared weight store;
a forward with no binding runs the full-width network.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.context import ForwardContext
from repro.nn.layers.activation import ReLU
from repro.nn.layers.pooling import MaxPool2d
from repro.nn.layers.reshape import Flatten
from repro.nn.module import Module
from repro.slimmable.masks import RegionTracker, conv_region, linear_region, vector_region
from repro.slimmable.spec import ChannelSlice, SubNetSpec, WidthSpec
from repro.slimmable.sliced_conv import SlicedConv2d
from repro.slimmable.sliced_linear import SlicedLinear
from repro.utils.rng import check_rng

IN_CHANNELS = 1
NUM_CLASSES = 10
#: Conv layers followed by a 2x2 max pool.
POOL_AFTER = (0, 1)


class SlimmableConvNet(Module):
    """The paper's 3-conv + 1-FC CNN with width-sliceable layers.

    Architecture (28x28 single-channel input, paper §III)::

        conv1 3x3 pad1 (1 -> w)   ReLU  maxpool2
        conv2 3x3 pad1 (w -> w)   ReLU  maxpool2
        conv3 3x3 pad1 (w -> w)   ReLU
        flatten -> linear (w*7*7 -> 10)

    where ``w`` is selected per sub-network from ``width_spec``.
    """

    def __init__(
        self,
        width_spec: WidthSpec,
        *,
        image_size: int = 28,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        check_rng(rng, "SlimmableConvNet")
        self.width_spec = width_spec
        self.in_channels = IN_CHANNELS
        self.image_size = image_size

        w = width_spec.max_width
        self.convs: List[SlicedConv2d] = []
        self.relus: List[ReLU] = []
        self.pools: Dict[int, MaxPool2d] = {}
        for i in range(width_spec.num_convs):
            conv = SlicedConv2d(
                IN_CHANNELS if i == 0 else w,
                w,
                kernel_size=3,
                padding=1,
                slice_input=(i > 0),
                rng=rng,
            )
            self.register_module(f"conv{i}", conv)
            self.convs.append(conv)
            relu = ReLU()
            self.register_module(f"relu{i}", relu)
            self.relus.append(relu)
            if i in POOL_AFTER:
                pool = MaxPool2d(2)
                self.register_module(f"pool{i}", pool)
                self.pools[i] = pool

        spatial = image_size
        for i in range(width_spec.num_convs):
            if i in self.pools:
                spatial //= 2
        if spatial <= 0:
            raise ValueError("too much pooling for the given image size")
        self.feature_spatial = spatial * spatial
        self.flatten = Flatten()
        self.classifier = SlicedLinear(w * self.feature_spatial, NUM_CLASSES, rng=rng)

    # -- sub-network selection -------------------------------------------------

    def feature_slice_for(self, channel_slice: ChannelSlice) -> ChannelSlice:
        """Map the last conv's channel slice to classifier feature columns."""
        return ChannelSlice(
            channel_slice.start * self.feature_spatial,
            channel_slice.stop * self.feature_spatial,
        )

    def bind_spec(self, spec: SubNetSpec, ctx: ForwardContext) -> None:
        """Select a sub-network for one call only, via context bindings.

        Writes the per-layer slice selection into ``ctx`` without touching
        the container, so concurrent calls may bind different specs.
        """
        if len(spec.conv_slices) != len(self.convs):
            raise ValueError(
                f"spec has {len(spec.conv_slices)} conv slices, net has {len(self.convs)}"
            )
        prev: Optional[ChannelSlice] = None
        for conv, out_slice in zip(self.convs, spec.conv_slices):
            in_slice, out_slice = conv.resolve_slices(prev, out_slice)
            ctx.bind(conv, in_slice=in_slice, out_slice=out_slice)
            prev = out_slice
        ctx.bind(
            self.classifier,
            feature_slice=self.classifier.resolve_feature_slice(
                self.feature_slice_for(spec.last_slice)
            ),
        )
        ctx.bind(self, spec=spec)

    def view(self, spec: SubNetSpec) -> "SubNetworkView":
        return SubNetworkView(self, spec)

    # -- compute ---------------------------------------------------------------

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        for i, (conv, relu) in enumerate(zip(self.convs, self.relus)):
            x = relu.forward(conv.forward(x, ctx), ctx)
            if i in self.pools:
                x = self.pools[i].forward(x, ctx)
        return self.classifier.forward(self.flatten.forward(x, ctx), ctx)

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        grad = self.flatten.backward(self.classifier.backward(grad_output, ctx), ctx)
        for i in reversed(range(len(self.convs))):
            if i in self.pools:
                grad = self.pools[i].backward(grad, ctx)
            grad = self.convs[i].backward(self.relus[i].backward(grad, ctx), ctx)
        return grad

    # -- regions (for incremental freezing) -------------------------------------

    def region_masks(self, spec: SubNetSpec) -> List[Tuple[object, np.ndarray]]:
        """(parameter, coverage-mask) pairs for every weight ``spec`` touches."""
        pairs: List[Tuple[object, np.ndarray]] = []
        prev: Optional[ChannelSlice] = None
        for conv, out_slice in zip(self.convs, spec.conv_slices):
            in_slice, out_slice = conv.resolve_slices(prev, out_slice)
            pairs.append((conv.weight, conv_region(conv.weight.shape, out_slice, in_slice)))
            pairs.append((conv.bias, vector_region(conv.bias.shape, out_slice)))
            prev = out_slice
        feat = self.feature_slice_for(spec.last_slice)
        pairs.append((self.classifier.weight, linear_region(self.classifier.weight.shape, feat)))
        pairs.append((self.classifier.bias, np.ones_like(self.classifier.bias.data)))
        return pairs

    def apply_freeze(self, spec: SubNetSpec, tracker: RegionTracker) -> None:
        """Freeze everything previous stages covered; train the rest of ``spec``.

        Installs per-parameter masks equal to ``region(spec) - covered`` so
        only this stage's new weights receive updates.
        """
        for param, region in self.region_masks(spec):
            param.set_freeze_mask(tracker.trainable_mask(param, region))

    def clear_freeze(self) -> None:
        for param in self.parameters():
            param.set_freeze_mask(None)


class SubNetworkView(Module):
    """A sub-network of a :class:`SlimmableConvNet`, usable as a model.

    Forward *binds* the spec's slices into the call's context and never
    mutates the container, so views are freely usable from concurrent
    threads over one shared weight store.  Parameter traversal delegates to
    the parent container, meaning optimizers built on a view see the full
    shared storage — combined with freeze masks this gives incremental
    training its semantics.
    """

    def __init__(self, net: SlimmableConvNet, spec: SubNetSpec) -> None:
        super().__init__()
        # Intentionally NOT registered as a child module: the view borrows
        # the container's parameters rather than owning a copy.
        object.__setattr__(self, "net", net)
        self.spec = spec

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        self.net.bind_spec(self.spec, ctx)
        return self.net.forward(x, ctx)

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        bound = ctx.bound(self.net, "spec")
        if bound is not self.spec:
            raise RuntimeError(
                f"backward for view {self.spec.name!r} but the context is bound to "
                f"{bound.name if bound is not None else None!r}"
            )
        return self.net.backward(grad_output, ctx)

    def parameters(self):
        return self.net.parameters()

    def named_parameters(self, prefix: str = ""):
        return self.net.named_parameters(prefix=prefix)

    def train(self, mode: bool = True) -> "SubNetworkView":
        self.net.train(mode)
        self.training = mode
        return self

    def zero_grad(self) -> None:
        self.net.zero_grad()

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"SubNetworkView({self.spec.name})"
