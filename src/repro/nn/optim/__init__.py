"""Optimizers."""

from repro.nn.optim.base import Optimizer
from repro.nn.optim.sgd import SGD

__all__ = ["Optimizer", "SGD"]
