"""Width-slimmable layers and sub-network machinery.

The mechanism behind all three model families in the paper: full-width
weights stored once, sub-networks expressed as channel slices
(:class:`SubNetSpec`), trained with per-region freeze masks
(:class:`RegionTracker`).
"""

from repro.slimmable.masks import (
    RegionTracker,
    conv_region,
    linear_region,
    vector_region,
)
from repro.slimmable.slim_net import SlimmableConvNet, SubNetworkView
from repro.slimmable.sliced_conv import SlicedConv2d
from repro.slimmable.sliced_linear import SlicedLinear
from repro.slimmable.spec import (
    ChannelSlice,
    SubNetSpec,
    WidthSpec,
    paper_width_spec,
    uniform_spec,
)

__all__ = [
    "ChannelSlice",
    "SubNetSpec",
    "WidthSpec",
    "uniform_spec",
    "paper_width_spec",
    "SlicedConv2d",
    "SlicedLinear",
    "SlimmableConvNet",
    "SubNetworkView",
    "RegionTracker",
    "conv_region",
    "vector_region",
    "linear_region",
]
