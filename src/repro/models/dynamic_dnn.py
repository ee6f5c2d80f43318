"""Dynamic DNN baseline (incremental training, the paper's reference [3]).

Nested sub-networks 25% ⊂ 50% ⊂ 75% ⊂ 100% share weights; all *lower*
sub-networks are standalone-certified, but the upper slices exist only as
parts of the dense combined weights — they were never trained to run alone,
so a Master failure (which strands the Worker's upper half) kills the
system, as in the paper's Fig. 1c.
"""

from __future__ import annotations

from repro.models.base import ModelFamily
from repro.slimmable.slim_net import SlimmableConvNet


class DynamicDNN(ModelFamily):
    """Slimmable model with nested (lower-anchored) sub-networks."""

    family_name = "dynamic"

    def __init__(self, net: SlimmableConvNet) -> None:
        lower = [spec.name for spec in net.width_spec.lower_family()]
        super().__init__(net, certified_standalone=lower, certified_combined=lower)
