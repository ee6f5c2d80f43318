"""Per-call forward/backward state: the activation tape.

A :class:`ForwardContext` carries everything one forward pass produces that
the matching backward pass consumes.  Modules never cache activations on
``self`` — ``forward(x, ctx)`` writes into the context's *tape* and
``backward(grad, ctx)`` reads it back — so a model is a pure function of
``(parameters, input, context)``.  Parameters stay shared and read-only
during inference, which is what lets any number of concurrent
:class:`~repro.engine.session.InferenceSession`\\ s serve one weight store
with zero copies.

The context has two compartments:

* **tape** — per-module activation state recorded by ``forward`` when
  ``recording`` is True (im2col columns, ReLU masks, input shapes).
  Inference contexts are created with ``recording=False`` so layers skip
  both the bookkeeping and, where possible, the computation (e.g. the ReLU
  mask is never materialised).
* **bindings** — call-scoped configuration installed by the *caller* before
  the pass runs.  Slimmable views bind their spec's channel slices here; a
  binding is the only way to select a sub-network, so two threads can run
  different widths against the same
  :class:`~repro.slimmable.slim_net.SlimmableConvNet`, which no call ever
  mutates.

Both compartments are keyed by module identity.  A context must not be
shared between concurrent calls; it is cheap to create one per request.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ForwardContext:
    """Activation tape plus call-scoped bindings for one forward/backward."""

    __slots__ = ("recording", "_tape", "_bindings")

    def __init__(self, *, recording: bool = True) -> None:
        self.recording = recording
        self._tape: Dict[Any, Dict[str, Any]] = {}
        self._bindings: Dict[Any, Dict[str, Any]] = {}

    # -- tape (written by forward, read by backward) -------------------------

    def put(self, module, **state: Any) -> None:
        """Record ``module``'s activation state (no-op unless recording)."""
        if self.recording:
            self._tape[module] = state

    def get(self, module) -> Optional[Dict[str, Any]]:
        """The module's recorded state, or None if nothing was recorded."""
        return self._tape.get(module)

    def require(self, module) -> Dict[str, Any]:
        """The module's recorded state; raises if forward never recorded any."""
        state = self._tape.get(module)
        if state is None:
            raise RuntimeError(
                f"backward called before forward: no recorded state for "
                f"{type(module).__name__} (was the context created with "
                f"recording=False?)"
            )
        return state

    # -- bindings (written by the caller, read by forward) --------------------

    def bind(self, module, **bindings: Any) -> None:
        """Install call-scoped configuration for ``module`` (e.g. slices)."""
        slot = self._bindings.get(module)
        if slot is None:
            slot = self._bindings[module] = {}
        slot.update(bindings)

    def bound(self, module, name: str, default: Any = None) -> Any:
        """Read a binding for ``module``, falling back to ``default``."""
        slot = self._bindings.get(module)
        if slot is None:
            return default
        return slot.get(name, default)

    # -- lifecycle -------------------------------------------------------------

    def clear(self) -> None:
        self._tape.clear()
        self._bindings.clear()

    def __repr__(self) -> str:
        return (
            f"ForwardContext(recording={self.recording}, "
            f"tape={len(self._tape)} modules, bindings={len(self._bindings)})"
        )
