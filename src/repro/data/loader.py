"""Mini-batch iteration."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import check_rng


class DataLoader:
    """Iterates a dataset in mini-batches, optionally reshuffling per epoch."""

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int,
        *,
        shuffle: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if shuffle:
            check_rng(rng, "DataLoader(shuffle=True)")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            yield self.dataset[order[start : start + self.batch_size]]
