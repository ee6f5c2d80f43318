"""Stochastic gradient descent with optional momentum.

Steps consume ``Parameter.effective_grad()`` (the gradient after the freeze
mask), so incremental training's per-slice freezing needs nothing here.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.parameter import Parameter


class SGD:
    """SGD with classical momentum.

    Update rule (per parameter)::

        v = momentum * v + grad
        w = w - lr * v
    """

    def __init__(self, params: Iterable[Parameter], lr: float, momentum: float = 0.0) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if not p.requires_grad:
                continue
            grad = p.effective_grad()
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data -= self.lr * update
            p.bump_version()
