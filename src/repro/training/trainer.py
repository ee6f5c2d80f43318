"""One training stage: SGD with momentum over softmax cross-entropy.

Trains any Module-like object (including
:class:`~repro.slimmable.slim_net.SubNetworkView`).  Algorithm 1
(:mod:`repro.training.recipes`) runs one stage per sub-network; its stages
differ only in which view they train, at which learning rate, and which
freeze masks are installed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.nn.context import ForwardContext
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.optim.sgd import SGD
from repro.training.history import EpochRecord, History
from repro.utils.rng import check_rng

BATCH_SIZE = 64
MOMENTUM = 0.9


def fit_stage(
    model,
    train_set: ArrayDataset,
    epochs: int,
    lr: float,
    *,
    rng: np.random.Generator,
    val_set: Optional[ArrayDataset],
    stage: str,
) -> History:
    """Train ``model`` for ``epochs`` and return the per-epoch history.

    ``model`` must implement forward/backward/parameters/zero_grad (all
    Modules and SubNetworkViews do).
    """
    check_rng(rng, "fit_stage")
    loss_fn = SoftmaxCrossEntropy()
    history = History()
    optimizer = SGD(model.parameters(), lr=lr, momentum=MOMENTUM)
    loader = DataLoader(train_set, BATCH_SIZE, shuffle=True, rng=rng)

    model.train(True)
    for epoch in range(epochs):
        epoch_loss = 0.0
        epoch_correct = 0
        seen = 0
        for x, y in loader:
            # One context per step carries the activation tape from
            # forward to backward; the model itself stays stateless.
            ctx = ForwardContext()
            logits = model.forward(x, ctx)
            loss, grad = loss_fn(logits, y)
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
        history.add(EpochRecord(
            stage=stage,
            epoch=epoch,
            train_loss=epoch_loss / seen,
            train_accuracy=epoch_correct / seen,
            val_accuracy=val_acc,
            lr=optimizer.lr,
        ))

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
