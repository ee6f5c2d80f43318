"""A live emulated edge device.

Wraps a model residency (which weight rows the device holds), a
:class:`~repro.device.profiles.DeviceProfile` for latency accounting, and
failure triggers.  The distributed runtime talks to devices only through
:meth:`execute` — from the outside an :class:`EmulatedDevice` behaves like
a board that computes, takes time, and sometimes dies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.device.cost import subnet_flops, subnet_num_layers
from repro.device.profiles import DeviceProfile
from repro.nn.context import ForwardContext
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import SubNetSpec


class DeviceFailed(RuntimeError):
    """Raised when an emulated device is asked to work after crashing."""


class CrashCounter:
    """Crash-on-Nth-request trigger for the live emulated device.

    Used by integration tests to make a worker die mid-stream
    deterministically, without wall-clock dependence.
    """

    def __init__(self, crash_after_requests: int) -> None:
        if crash_after_requests < 0:
            raise ValueError("crash_after_requests must be non-negative")
        self.crash_after_requests = crash_after_requests
        self.requests_seen = 0

    def record_request(self) -> bool:
        """Count a request; returns True if the device should now crash."""
        self.requests_seen += 1
        return self.requests_seen > self.crash_after_requests


class EmulatedDevice:
    """One emulated edge device hosting (part of) a slimmable model."""

    def __init__(
        self,
        profile: DeviceProfile,
        net: SlimmableConvNet,
        *,
        crash_counter: Optional[CrashCounter] = None,
    ) -> None:
        self.profile = profile
        self.net = net
        self.crash_counter = crash_counter
        self.alive = True
        self.busy_time_s = 0.0
        self.requests_served = 0

    @property
    def name(self) -> str:
        return self.profile.name

    def crash(self) -> None:
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def _check_alive(self) -> None:
        if not self.alive:
            raise DeviceFailed(f"device {self.name!r} is down")
        if self.crash_counter is not None and self.crash_counter.record_request():
            self.alive = False
            raise DeviceFailed(f"device {self.name!r} crashed mid-stream")

    def execute_subnet(self, spec: SubNetSpec, x: np.ndarray, plan=None) -> np.ndarray:
        """Run a standalone sub-network on a batch; accounts emulated time.

        ``plan`` is a compiled :class:`~repro.nn.plan.InferencePlan` of
        ``spec`` over this device's net; a batch it accepts runs through it
        (bitwise the eager forward), any other batch runs eager.
        """
        self._check_alive()
        if plan is not None and plan.accepts(x):
            logits = plan.run(x)
        else:
            view = self.net.view(spec)
            view.train(False)
            # Stateless inference: slice bindings and (skipped) activation
            # tape live on the per-call context, not on the shared net.
            logits = view.forward(x, ForwardContext(recording=False))
        flops = subnet_flops(self.net, spec) * x.shape[0]
        layers = subnet_num_layers(self.net) * x.shape[0]
        self.busy_time_s += self.profile.compute_time(flops, layers)
        self.requests_served += 1
        return logits

    def estimated_latency(self, spec: SubNetSpec) -> float:
        """Per-image latency of a standalone sub-network on this device."""
        return self.profile.compute_time(
            subnet_flops(self.net, spec), subnet_num_layers(self.net)
        )

    def __repr__(self) -> str:
        state = "alive" if self.alive else "DOWN"
        return f"EmulatedDevice({self.name}, {state}, served={self.requests_served})"
