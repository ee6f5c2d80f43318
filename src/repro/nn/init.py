"""Weight initializers.

All initializers take an explicit generator (repo-wide determinism rule) and
return new arrays; layers decide where to store them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _fan_in(shape: Tuple[int, ...]) -> int:
    if len(shape) == 2:  # linear: (out, in)
        return shape[1]
    if len(shape) == 4:  # conv: (out, in, kh, kw)
        return shape[1] * shape[2] * shape[3]
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He/Kaiming uniform init (appropriate for ReLU networks)."""
    fan_in = _fan_in(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def bias_uniform(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style bias init: uniform in +-1/sqrt(fan_in)."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
