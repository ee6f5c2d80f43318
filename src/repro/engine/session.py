"""Concurrent shared-weight inference sessions.

An :class:`InferenceSession` is one serving handle over a model whose
parameters are *shared and read-only*: every call builds a fresh
non-recording :class:`~repro.nn.context.ForwardContext`, so per-request
activation state never touches the model.  K sessions over one weight
store run concurrently from K threads with **zero parameter copies** —
the exact property the slimmable design wants, since sub-network views
already alias one storage and cloning it per request would defeat the
paper's weight sharing.

The model is a :class:`~repro.slimmable.slim_net.SlimmableConvNet` or a
model family, and ``subnet`` names the width served; the session runs the
:class:`~repro.slimmable.slim_net.SubNetworkView` that binds that spec into
each call's context, so the container is never mutated.

Sessions must be created before concurrent serving begins: construction
flips the model to eval mode (idempotent), which is the only shared-state
write in the session lifecycle.

A session may carry a compiled :class:`~repro.nn.plan.InferencePlan`:
requests the plan accepts (matching shape, batch fits the arena, active
dtype policy matches the compiled dtype) run allocation-free through the
plan's workspace pool, computing over the batch's rows only; everything
else falls back to the eager path.  Plan and eager outputs are bitwise
identical.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.context import ForwardContext
from repro.nn.module import Module


class InferenceSession:
    """One serving handle: shared read-only weights, per-call contexts."""

    def __init__(self, model, subnet: str, *, plan=None) -> None:
        if plan is not None and plan.width != subnet:
            raise ValueError(f"plan is compiled for {plan.width!r}, session serves {subnet!r}")
        # SlimmableConvNet takes a SubNetSpec; model families take a name.
        if isinstance(model, Module):
            self.model = model.view(model.width_spec.find(subnet))
        else:
            self.model = model.view(subnet)
        self.plan = plan
        # Eval mode is the one shared write; do it here, serially, so the
        # serve path is pure reads.
        self.model.train(False)

    def run(self, x: np.ndarray) -> np.ndarray:
        """One inference request; reentrant and thread-safe."""
        if self.plan is not None and self.plan.accepts(x):
            return self.plan.run(x)
        return self.model.forward(x, ForwardContext(recording=False))

    def run_parts(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Serve a micro-batch given as per-request row groups.

        On the compiled-plan path the rows are scattered straight into the
        plan's input arena (no ``np.concatenate`` temporary); the eager
        fallback concatenates first — outputs are identical either way.
        """
        if self.plan is not None and self.plan.accepts_parts(parts):
            return self.plan.run_parts(parts)
        x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
        return self.model.forward(x, ForwardContext(recording=False))

    def parameters(self):
        """The underlying shared parameters (for zero-copy assertions)."""
        return self.model.parameters()

    def __repr__(self) -> str:
        return f"InferenceSession({self.model!r})"
