"""Fluid Dynamic DNN — the paper's contribution.

On top of the Dynamic DNN's nested lower sub-networks, the *upper* slices
(upper-25% = channels 50–75%, upper-50% = channels 50–100%) are fine-tuned
by nested incremental training (Algorithm 1, implemented in
:mod:`repro.training.recipes`) to run standalone while remaining
combinable with the lower 50% into the 75%/100% models.  Every sub-network
is therefore standalone-certified: either device survives alone, and with
both devices online the system can run High-Throughput mode (two
independent sub-networks on different inputs) or High-Accuracy mode (the
combined 100% model on the same input).
"""

from __future__ import annotations

from repro.models.base import ModelFamily
from repro.slimmable.slim_net import SlimmableConvNet


class FluidDyDNN(ModelFamily):
    """Slimmable model whose upper sub-networks are independently usable."""

    family_name = "fluid"

    def __init__(self, net: SlimmableConvNet) -> None:
        lower = [spec.name for spec in net.width_spec.lower_family()]
        upper = [spec.name for spec in net.width_spec.upper_family()]
        super().__init__(
            net,
            certified_standalone=lower + upper,
            certified_combined=lower,
        )

    def independent_pair(self) -> tuple:
        """The (lower, upper) sub-network names used by High-Throughput mode.

        Paper §II-B: in HT mode the Master runs the lower 50% and the Worker
        the upper 50% on *different* inputs in parallel.
        """
        split = self.width_spec.split
        lower = self.width_spec.lower(split).name
        upper = self.width_spec.upper(self.width_spec.max_width - split).name
        return lower, upper
