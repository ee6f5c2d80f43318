"""Common interface for the three model families.

A model family wraps one :class:`~repro.slimmable.slim_net.SlimmableConvNet` and a
*certification* record: which sub-networks its training procedure makes
usable standalone, and which combined modes are valid.  The distributed
runtime consults certifications when re-planning after a failure — a Static
DNN's surviving half is physically present on the device but uncertified, so
the system correctly declares failure (paper Fig. 1b/1c).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.context import ForwardContext
from repro.nn.metrics import accuracy
from repro.slimmable.slim_net import SlimmableConvNet, SubNetworkView
from repro.slimmable.spec import SubNetSpec, WidthSpec


class ModelFamily:
    """Base class for Static / Dynamic / Fluid model families."""

    family_name: str = "base"

    def __init__(
        self,
        net: SlimmableConvNet,
        certified_standalone: Iterable[str],
        certified_combined: Iterable[str],
    ) -> None:
        self.net = net
        self.width_spec: WidthSpec = net.width_spec
        self.certified_standalone: Tuple[str, ...] = tuple(certified_standalone)
        self.certified_combined: Tuple[str, ...] = tuple(certified_combined)
        self._validate_certifications()

    def _validate_certifications(self) -> None:
        known = {spec.name for spec in self.width_spec.all_specs()}
        for name in (*self.certified_standalone, *self.certified_combined):
            if name not in known:
                raise ValueError(f"certified sub-network {name!r} is not in the width spec")

    # -- sub-network access ---------------------------------------------------

    def spec(self, name: str) -> SubNetSpec:
        return self.width_spec.find(name)

    def view(self, name: str) -> SubNetworkView:
        return self.net.view(self.spec(name))

    def full_view(self) -> SubNetworkView:
        return self.net.view(self.width_spec.full())

    def is_standalone_certified(self, name: str) -> bool:
        return name in self.certified_standalone

    def is_combined_certified(self, name: str) -> bool:
        return name in self.certified_combined

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, name: str, dataset: ArrayDataset) -> float:
        """Top-1 accuracy of sub-network ``name`` on ``dataset`` (in [0, 1]),
        256 images a forward."""
        view = self.view(name)
        view.train(False)
        correct = 0
        for start in range(0, len(dataset), 256):
            x, y = dataset[np.arange(start, min(start + 256, len(dataset)))]
            # Inference never runs backward: a non-recording context skips
            # the activation tape entirely.
            logits = view.forward(x, ForwardContext(recording=False))
            correct += int((logits.argmax(axis=1) == y).sum())
        return correct / len(dataset)

    def evaluate_all(self, dataset: ArrayDataset) -> Dict[str, float]:
        """Accuracy of every sub-network in the family's width spec."""
        return {
            spec.name: self.evaluate(spec.name, dataset)
            for spec in self.width_spec.all_specs()
        }

    def state_dict(self) -> Dict[str, np.ndarray]:
        return self.net.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.net.load_state_dict(state)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(standalone={list(self.certified_standalone)}, "
            f"combined={list(self.certified_combined)})"
        )
