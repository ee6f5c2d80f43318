"""A from-scratch numpy DNN framework.

This package stands in for PyTorch, which the reproduction does not depend
on: explicit forward/backward modules, im2col convolutions, SGD and npz
checkpointing — exactly what the paper's net (three width-sliced
convolutions and a sliced classifier, see :mod:`repro.slimmable`) and its
training algorithms build, plus the compiled inference plans that serve it.
"""

from repro.nn import functional
from repro.nn.checkpoint import load_state, save_state
from repro.nn.context import ForwardContext
from repro.nn.layers import Flatten, MaxPool2d, ReLU
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.module import Module
from repro.nn.optim import SGD, Optimizer
from repro.nn.parameter import Parameter
from repro.nn.plan import InferencePlan, PackedWeightCache, compile_width_plans
from repro.nn.workspace import BufferSpec, Workspace, WorkspacePool

__all__ = [
    "functional",
    "ForwardContext",
    "Parameter",
    "Module",
    "ReLU",
    "MaxPool2d",
    "Flatten",
    "SoftmaxCrossEntropy",
    "Optimizer",
    "SGD",
    "accuracy",
    "save_state",
    "load_state",
    "InferencePlan",
    "PackedWeightCache",
    "compile_width_plans",
    "BufferSpec",
    "Workspace",
    "WorkspacePool",
]
