"""Plain supervised trainer.

Trains any Module-like object (including
:class:`~repro.slimmable.slim_net.SubNetworkView`) with SGD+momentum and softmax
cross-entropy.  The incremental and nested-incremental trainers are built
on top of this primitive — they differ only in which view they train and
which freeze masks are installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.nn.context import ForwardContext
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.optim.sgd import SGD
from repro.training.history import EpochRecord, History
from repro.utils.rng import check_rng


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training stage."""

    epochs: int = 3
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")

    def scaled_lr(self, factor: float) -> "TrainConfig":
        """Copy with the learning rate multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr * factor,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )


class Trainer:
    """Single-model trainer (softmax cross-entropy, SGD with momentum)."""

    def __init__(self) -> None:
        self.loss_fn = SoftmaxCrossEntropy()

    def fit(
        self,
        model,
        train_set: ArrayDataset,
        config: TrainConfig,
        *,
        rng: np.random.Generator,
        val_set: Optional[ArrayDataset] = None,
        stage: str = "train",
    ) -> History:
        """Train ``model`` and return the per-epoch history.

        ``model`` must implement forward/backward/parameters/zero_grad (all
        Modules and SubNetworkViews do).
        """
        check_rng(rng, "Trainer.fit")
        history = History()
        optimizer = SGD(
            model.parameters(),
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        loader = DataLoader(train_set, config.batch_size, shuffle=True, rng=rng)

        model.train(True)
        for epoch in range(config.epochs):
            epoch_loss = 0.0
            epoch_correct = 0
            seen = 0
            for x, y in loader:
                # One context per step carries the activation tape from
                # forward to backward; the model itself stays stateless.
                ctx = ForwardContext()
                logits = model.forward(x, ctx)
                loss, grad = self.loss_fn(logits, y)
                optimizer.zero_grad()
                model.backward(grad, ctx)
                optimizer.step()
                epoch_loss += loss * len(y)
                epoch_correct += int((logits.argmax(axis=1) == y).sum())
                seen += len(y)

            val_acc = None
            if val_set is not None:
                val_acc = evaluate_view(model, val_set)
                model.train(True)
            record = EpochRecord(
                stage=stage,
                epoch=epoch,
                train_loss=epoch_loss / seen,
                train_accuracy=epoch_correct / seen,
                val_accuracy=val_acc,
                lr=optimizer.lr,
            )
            history.add(record)

        model.train(False)
        return history


def evaluate_view(model, dataset: ArrayDataset) -> float:
    """Top-1 accuracy of a model/view over a dataset (in [0, 1]), 256 images
    a forward."""
    model.train(False)
    correct = 0
    for start in range(0, len(dataset), 256):
        idx = np.arange(start, min(start + 256, len(dataset)))
        x, y = dataset[idx]
        logits = model.forward(x, ForwardContext(recording=False))
        correct += int((logits.argmax(axis=1) == y).sum())
    return correct / len(dataset)
