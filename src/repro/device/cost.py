"""Per-layer cost accounting for sub-networks and partitions.

Everything the latency and throughput models need to know about a
sub-network's execution: per-layer FLOPs, layer count, and the activation
tensor sizes that cross the device boundary in partitioned (High-Accuracy)
mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.nn import functional as F
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import SubNetSpec
from repro.utils.dtypes import get_dtype_policy

#: Historical default (activations cross the wire as float32).  Retained as
#: the documented baseline; live accounting goes through
#: :func:`wire_bytes_per_value`, which reads the active dtype policy so the
#: cost model stays honest when a policy ships float64 activations.
WIRE_BYTES_PER_VALUE = 4


def wire_bytes_per_value() -> int:
    """Itemsize of one activation value on the device boundary.

    Exchanged activations are cast with
    :func:`~repro.comm.wire.cast_for_wire` before they cross, so the honest
    per-value byte count is the policy wire dtype's itemsize — 4 under the
    default float32 wire, 8 when a policy demands full-precision exchange.
    """
    return int(get_dtype_policy().wire_dtype.itemsize)


@dataclass(frozen=True)
class LayerCost:
    """Cost facts for one layer of an activated sub-network."""

    name: str
    flops: int
    out_channels: int
    out_spatial: int  # H*W of the layer output after pooling (1 for FC)

    @property
    def activation_values(self) -> int:
        return self.out_channels * self.out_spatial

    @property
    def activation_bytes(self) -> int:
        return self.activation_values * wire_bytes_per_value()


def subnet_layer_costs(net: SlimmableConvNet, spec: SubNetSpec) -> List[LayerCost]:
    """Per-layer costs of running ``spec`` end-to-end on one device."""
    costs: List[LayerCost] = []
    size = net.image_size
    prev = None
    for i, (conv, out_slice) in enumerate(zip(net.convs, spec.conv_slices)):
        in_slice, out_slice = conv.resolve_slices(prev, out_slice)
        flops = conv.flops_per_image(size, size, in_slice=in_slice, out_slice=out_slice)
        if i in net.pools:
            size //= 2
        costs.append(
            LayerCost(
                name=f"conv{i}",
                flops=flops,
                out_channels=out_slice.width,
                out_spatial=size * size,
            )
        )
        prev = out_slice
    costs.append(
        LayerCost(
            name="fc",
            flops=net.classifier.flops_per_image(net.feature_slice_for(spec.last_slice)),
            out_channels=net.classifier.out_features,
            out_spatial=1,
        )
    )
    return costs


def subnet_flops(net: SlimmableConvNet, spec: SubNetSpec) -> int:
    return sum(c.flops for c in subnet_layer_costs(net, spec))


def subnet_num_layers(net: SlimmableConvNet) -> int:
    """Executable layer count (convs + classifier) for overhead accounting."""
    return len(net.convs) + 1


def block_partitioned_costs(
    net: SlimmableConvNet, spec: SubNetSpec, boundaries: Tuple[int, ...]
) -> Tuple[List[List[LayerCost]], List[int]]:
    """Costs of width-partitioned (High-Accuracy) execution over N blocks.

    Device ``k`` computes output channels ``[boundaries[k], boundaries[k+1])``
    of every conv (clipped to the layer's width) and its share of the
    classifier.  Every device reads the *full* input activation of each
    layer, which is what forces the per-layer all-gather.

    Returns ``(per_device_costs, exchange_bytes)`` where
    ``per_device_costs[k][i]`` is device ``k``'s cost for layer ``i`` and
    ``exchange_bytes[i]`` bounds the (full-duplex) per-layer exchange: the
    widest complement any device must receive, with the final entry the
    partial-logit gather.
    """
    if len(boundaries) < 3 or boundaries[0] != 0 or list(boundaries) != sorted(set(boundaries)):
        raise ValueError(f"bad block boundaries {boundaries!r}")
    if spec.conv_slices[0].start != 0:
        raise ValueError("partitioned execution applies to combined (lower-anchored) specs")
    num_blocks = len(boundaries) - 1
    total = subnet_layer_costs(net, spec)
    per_device: List[List[LayerCost]] = [[] for _ in range(num_blocks)]
    exchange: List[int] = []
    for cost in total:
        if cost.name == "fc":
            # Each device multiplies its share of the features; all but one
            # ship their partial logits (out_channels values each).
            share = cost.flops // num_blocks
            for k in range(num_blocks):
                flops_k = share if k < num_blocks - 1 else cost.flops - share * (num_blocks - 1)
                per_device[k].append(LayerCost("fc", flops_k, cost.out_channels, 1))
            exchange.append((num_blocks - 1) * cost.out_channels * wire_bytes_per_value())
        else:
            widths = []
            for k in range(num_blocks):
                start = min(boundaries[k], cost.out_channels)
                stop = min(boundaries[k + 1], cost.out_channels)
                if stop <= start:
                    raise ValueError(
                        f"layer {cost.name} has {cost.out_channels} channels; "
                        f"block [{boundaries[k]}, {boundaries[k + 1]}) is empty"
                    )
                widths.append(stop - start)
            assigned = 0
            for k, width in enumerate(widths):
                if k < num_blocks - 1:
                    flops_k = cost.flops * width // cost.out_channels
                    assigned += flops_k
                else:
                    flops_k = cost.flops - assigned
                per_device[k].append(LayerCost(cost.name, flops_k, width, cost.out_spatial))
            # All-gather: the widest complement bounds the exchange.
            complement = cost.out_channels - min(widths)
            exchange.append(complement * cost.out_spatial * wire_bytes_per_value())
    return per_device, exchange


def subnet_param_count(net: SlimmableConvNet, spec: SubNetSpec) -> int:
    """Parameter count of a standalone sub-network (for memory-capacity checks)."""
    total = 0
    prev = None
    for conv, s in zip(net.convs, spec.conv_slices):
        in_slice, s = conv.resolve_slices(prev, s)
        total += s.width * in_slice.width * conv.kernel_size**2 + s.width
        prev = s
    feat = net.feature_slice_for(spec.last_slice)
    total += net.classifier.out_features * (feat.width + 1)
    return total


