"""Dataset abstractions."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import check_rng


class ArrayDataset:
    """In-memory dataset of ``(images, labels)`` arrays.

    Images are ``(N, C, H, W)`` float64; labels are ``(N,)`` int64.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {images.shape}")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} incompatible with {images.shape[0]} images"
            )
        self.images = np.ascontiguousarray(images, dtype=np.float64)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return self.images.shape[0]

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.images[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(self.images[indices], self.labels[indices])

    def split(
        self, fraction: float, rng: np.random.Generator
    ) -> Tuple["ArrayDataset", "ArrayDataset"]:
        """Shuffle and split into ``(first, second)`` with ``fraction`` in first."""
        check_rng(rng, "ArrayDataset.split")
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        order = rng.permutation(len(self))
        cut = int(round(fraction * len(self)))
        return self.subset(order[:cut]), self.subset(order[cut:])
