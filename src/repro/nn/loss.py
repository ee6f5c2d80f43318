"""Loss functions.

Losses are not Modules and carry no per-call state: they return
``(loss_value, grad_wrt_logits)`` in one call, and the trainer feeds the
returned gradient straight into ``model.backward(grad, ctx)`` together with
the :class:`~repro.nn.context.ForwardContext` the forward pass recorded
into.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn import functional as F


class SoftmaxCrossEntropy:
    """Softmax + mean cross-entropy over integer class labels."""

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, classes), got {logits.shape}")
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ValueError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
        n, num_classes = logits.shape
        if labels.min() < 0 or labels.max() >= num_classes:
            raise ValueError("labels out of range")
        # One shifted-exp pass yields both log-probs (for the loss) and
        # probs (for the gradient), stable for any logit scale.
        rows = np.arange(n)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        denom = exp.sum(axis=1, keepdims=True)
        loss = -(shifted[rows, labels] - np.log(denom[:, 0])).mean()
        grad = exp / denom
        grad[rows, labels] -= 1.0
        grad /= n
        return float(loss), grad
