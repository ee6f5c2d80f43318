"""Classification metrics."""

from __future__ import annotations

import numpy as np


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2D, got {logits.shape}")
    if labels.shape[0] != logits.shape[0]:
        raise ValueError("batch size mismatch")
    if logits.shape[0] == 0:
        raise ValueError("empty batch")
    pred = logits.argmax(axis=1)
    return float((pred == labels).mean())
