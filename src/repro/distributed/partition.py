"""Width partitioning of a slimmable model over two devices.

In the paper's deployment the Master holds the *lower* half of every
layer's kernels and the Worker the *upper* half (Fig. 1a).  This module
captures that residency: which weight rows live where, and therefore which
sub-networks a device can still run after its peer dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.slimmable.spec import ChannelSlice, SubNetSpec, WidthSpec

MASTER = "master"
WORKER = "worker"
ROLES = (MASTER, WORKER)


@dataclass(frozen=True)
class WidthPartition:
    """A two-way split of output channels at ``split``."""

    width_spec: WidthSpec
    split: int

    def __post_init__(self) -> None:
        if not 0 < self.split < self.width_spec.max_width:
            raise ValueError(
                f"split {self.split} outside (0, {self.width_spec.max_width})"
            )

    @classmethod
    def at_spec_split(cls, width_spec: WidthSpec) -> "WidthPartition":
        """Partition at the width spec's upper/lower boundary (paper: 50%)."""
        return cls(width_spec, width_spec.split)

    def device_slice(self, role: str) -> ChannelSlice:
        """Output-channel rows resident on a device."""
        if role == MASTER:
            return ChannelSlice(0, self.split)
        if role == WORKER:
            return ChannelSlice(self.split, self.width_spec.max_width)
        raise ValueError(f"unknown role {role!r}")

    def resident_specs(self, role: str) -> List[SubNetSpec]:
        """Sub-networks whose weights are fully resident on ``role``.

        A standalone sub-network with uniform slice ``[a, b)`` needs weight
        rows ``[a, b)`` of every layer (its input columns are within the
        same range, which lies inside those rows' column space only for the
        diagonal block the device already stores — the device holds its
        rows over *all* input columns, so containment of the row range is
        sufficient).
        """
        resident = self.device_slice(role)
        out: List[SubNetSpec] = []
        for spec in self.width_spec.all_specs():
            if all(resident.contains(s) for s in spec.conv_slices):
                out.append(spec)
        return out

    def survivor_options(self, role: str, certified: Tuple[str, ...]) -> List[SubNetSpec]:
        """Resident AND standalone-certified sub-networks for a lone device."""
        return [s for s in self.resident_specs(role) if s.name in certified]
