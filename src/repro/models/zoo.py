"""Model builders."""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

from repro.models.base import ModelFamily
from repro.models.dynamic_dnn import DynamicDNN
from repro.models.fluid_dydnn import FluidDyDNN
from repro.models.static_dnn import StaticDNN
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import WidthSpec, paper_width_spec

FAMILIES: Dict[str, Type[ModelFamily]] = {
    StaticDNN.family_name: StaticDNN,
    DynamicDNN.family_name: DynamicDNN,
    FluidDyDNN.family_name: FluidDyDNN,
}


def build_model(
    family: str,
    width_spec: WidthSpec = None,
    *,
    rng: np.random.Generator,
) -> ModelFamily:
    """Build an untrained model of the given family (``static|dynamic|fluid``)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    return FAMILIES[family](SlimmableConvNet(width_spec or paper_width_spec(), rng=rng))
