"""The unsliced layers the slimmable net is built from."""

from repro.nn.layers.activation import ReLU
from repro.nn.layers.pooling import MaxPool2d
from repro.nn.layers.reshape import Flatten

__all__ = ["ReLU", "MaxPool2d", "Flatten"]
