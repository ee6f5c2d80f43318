"""Freeze-mask bookkeeping for incremental training.

Incremental training (Xun et al., MLCAD 2019 — the paper's Dynamic DNN
baseline) trains sub-networks smallest-first and freezes every weight that an
earlier stage already trained.  A *region* here is the set of full-width
array entries a given sub-network's forward pass touches; the trainable mask
for stage ``k`` is ``region(k) - union(region(1..k-1))``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.slimmable.spec import ChannelSlice


class RegionTracker:
    """Accumulates per-parameter 0/1 coverage masks across training stages."""

    def __init__(self) -> None:
        self._covered: Dict[int, np.ndarray] = {}
        self._names: Dict[int, str] = {}

    def covered(self, param) -> np.ndarray:
        """Current coverage mask for a parameter (all-zero if never seen)."""
        key = id(param)
        if key not in self._covered:
            self._covered[key] = np.zeros_like(param.data)
            self._names[key] = param.name
        return self._covered[key]

    def mark(self, param, region_mask: np.ndarray) -> None:
        """Record that ``region_mask`` entries of ``param`` have been trained."""
        if region_mask.shape != param.data.shape:
            raise ValueError(
                f"region shape {region_mask.shape} != parameter shape {param.data.shape}"
            )
        cov = self.covered(param)
        np.maximum(cov, region_mask, out=cov)

    def trainable_mask(self, param, region_mask: np.ndarray) -> np.ndarray:
        """Entries in ``region_mask`` not yet covered by earlier stages."""
        return region_mask * (1.0 - self.covered(param))

    def reset(self) -> None:
        self._covered.clear()
        self._names.clear()


def conv_region(shape, out_slice: ChannelSlice, in_slice: ChannelSlice) -> np.ndarray:
    """Coverage mask of a conv weight block ``W[out, in, :, :]``."""
    mask = np.zeros(shape)
    mask[out_slice.as_slice(), in_slice.as_slice()] = 1.0
    return mask


def vector_region(shape, out_slice: ChannelSlice) -> np.ndarray:
    """Coverage mask of a bias (or any 1-D per-channel vector)."""
    mask = np.zeros(shape)
    mask[out_slice.as_slice()] = 1.0
    return mask


def linear_region(shape, feature_slice: ChannelSlice) -> np.ndarray:
    """Coverage mask of classifier weight columns ``W[:, features]``."""
    mask = np.zeros(shape)
    mask[:, feature_slice.as_slice()] = 1.0
    return mask
