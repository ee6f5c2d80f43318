"""Static DNN baseline.

A conventional monolithic model: only the full-width network is trained.
When width-partitioned over two devices, neither device's resident half is
certified to run standalone — the paper's Fig. 1b/1c failure cases.
"""

from __future__ import annotations

from repro.models.base import ModelFamily
from repro.slimmable.slim_net import SlimmableConvNet


class StaticDNN(ModelFamily):
    """Full-width-only model; distribution-unfriendly by construction."""

    family_name = "static"

    def __init__(self, net: SlimmableConvNet) -> None:
        full = net.width_spec.full().name
        super().__init__(net, certified_standalone=(), certified_combined=(full,))
