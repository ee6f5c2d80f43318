"""Global dtype policy: float64 training with an optional float32 fast path.

The nn stack stores master weights in float64 (gradcheck-grade precision for
training), but inference does not need that: casting activations and the
active weight blocks to float32 roughly halves memory traffic and doubles
BLAS throughput on the GEMMs every layer lowers to.

A :class:`DtypePolicy` names three dtypes:

* ``training`` — compute dtype of train-mode forward/backward (float64);
* ``inference`` — compute dtype of eval-mode forward passes;
* ``wire`` — dtype arrays take on the transport between devices.

One process-global policy is consulted by the layers
(:mod:`repro.nn.layers`, :mod:`repro.slimmable`), the stateless partitioned
kernels (:mod:`repro.distributed.partitioned`), and the wire codec helpers
(:mod:`repro.comm.wire`).  The default policy reproduces the historical
behaviour exactly: float64 everywhere, float32 on the wire.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

_COMPUTE_DTYPES = ("float32", "float64")
_WIRE_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class DtypePolicy:
    """Named dtypes for training compute, inference compute, and the wire."""

    inference: str = "float64"
    training: str = "float64"
    wire: str = "float32"

    def __post_init__(self) -> None:
        if self.inference not in _COMPUTE_DTYPES:
            raise ValueError(f"inference dtype must be one of {_COMPUTE_DTYPES}")
        if self.training not in _COMPUTE_DTYPES:
            raise ValueError(f"training dtype must be one of {_COMPUTE_DTYPES}")
        if self.wire not in _WIRE_DTYPES:
            raise ValueError(f"wire dtype must be one of {_WIRE_DTYPES}")

    # -- numpy views ---------------------------------------------------------

    @property
    def inference_dtype(self) -> np.dtype:
        return np.dtype(self.inference)

    @property
    def training_dtype(self) -> np.dtype:
        return np.dtype(self.training)

    @property
    def wire_dtype(self) -> np.dtype:
        return np.dtype(self.wire)

    def compute_dtype(self, training: bool) -> np.dtype:
        return self.training_dtype if training else self.inference_dtype

    # -- construction ---------------------------------------------------------

    @classmethod
    def fast_inference(cls) -> "DtypePolicy":
        """The float32 inference fast path (training stays float64)."""
        return cls(inference="float32")


_DEFAULT_POLICY = DtypePolicy()
# The process-wide policy (what set_dtype_policy installs): visible from every
# thread, including in-process worker/server threads.  The thread-local holds
# only scoped `dtype_policy(...)` overrides, so concurrent tests stay isolated.
_GLOBAL_POLICY = _DEFAULT_POLICY
_STATE = threading.local()


def get_dtype_policy() -> DtypePolicy:
    """The active policy: this thread's scoped override, else the process global."""
    return getattr(_STATE, "policy", None) or _GLOBAL_POLICY


def set_dtype_policy(policy: Optional[DtypePolicy]) -> DtypePolicy:
    """Install ``policy`` process-wide (None restores the default); returns the old one.

    Worker threads spawned before or after the call all observe the new
    policy (unless they are inside a scoped :func:`dtype_policy` block).
    """
    global _GLOBAL_POLICY
    old = _GLOBAL_POLICY
    _GLOBAL_POLICY = policy or _DEFAULT_POLICY
    return old


@contextmanager
def dtype_policy(policy: Optional[DtypePolicy] = None, **kwargs: str) -> Iterator[DtypePolicy]:
    """Temporarily install a policy for the current thread::

        with dtype_policy(inference="float32"):
            logits = view(x)   # float32 forward pass

    The override is thread-scoped (it shadows the process-wide policy only
    here), so concurrent threads — including in-process worker servers —
    are unaffected; use :func:`set_dtype_policy` for a process-wide switch.
    """
    if policy is None:
        policy = DtypePolicy(**kwargs)
    elif kwargs:
        raise TypeError("pass either a policy object or keyword overrides, not both")
    previous = getattr(_STATE, "policy", None)
    _STATE.policy = policy
    try:
        yield policy
    finally:
        _STATE.policy = previous


def compute_dtype(training: bool = False) -> np.dtype:
    """Active compute dtype for the given mode."""
    return get_dtype_policy().compute_dtype(training)


def resolve_dtype_policy(name: str) -> DtypePolicy:
    """Map a CLI-style name to a policy: ``float64`` | ``float32``."""
    if name == "float64":
        return DtypePolicy()
    if name == "float32":
        return DtypePolicy.fast_inference()
    raise ValueError(f"unknown dtype policy {name!r} (expected float32 or float64)")
