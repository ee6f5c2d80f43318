"""Module base class: the spine of the numpy DNN framework.

Modules implement explicit ``forward``/``backward`` passes (no autograd
tape).  Both take a :class:`~repro.nn.context.ForwardContext`:
``forward(x, ctx)`` records whatever the matching ``backward`` needs on the
context's activation tape; ``backward(grad, ctx)`` reads it back from the
same context, must (a) accumulate parameter gradients and (b) return the
gradient w.r.t. the module input.  Modules therefore hold only parameters
and hyper-parameters — never per-call state — so one weight store can
serve any number of concurrent forward passes, each with its own context.
This matters doubly for slimmable layers, which alias weight storage
between sub-networks.

``module(x)`` with no context runs on a fresh non-recording context that
nothing keeps: an inference call.  A caller that means to run ``backward``
creates the context, passes it to ``forward`` and hands the same one back.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.context import ForwardContext
from repro.nn.parameter import Parameter


class Module:
    """Base class for all network components."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- registration ------------------------------------------------------

    def register_module(self, name: str, module: "Module") -> "Module":
        if name in self._modules:
            raise ValueError(f"duplicate module name {name!r}")
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        # Auto-register Parameters and Modules assigned as attributes.
        if isinstance(value, Parameter):
            params = self.__dict__.get("_parameters")
            if params is None:
                raise AttributeError("call Module.__init__ before assigning parameters")
            params[name] = value
        elif isinstance(value, Module):
            modules = self.__dict__.get("_modules")
            if modules is None:
                raise AttributeError("call Module.__init__ before assigning sub-modules")
            modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ----------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        """All parameters in definition order (depth-first, no duplicates)."""
        seen: set = set()
        out: List[Parameter] = []
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    # -- train/eval and gradient state --------------------------------------

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- state I/O -----------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy every parameter from ``state``, which must name exactly them."""
        own = dict(self.named_parameters())
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={missing}, unexpected={unexpected}")
        for name, param in own.items():
            if state[name].shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"checkpoint {state[name].shape} vs model {param.data.shape}"
                )
            np.copyto(param.data, state[name])
            param.bump_version()

    # -- compute -------------------------------------------------------------

    def forward(self, x: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray, ctx: ForwardContext) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, ctx: Optional[ForwardContext] = None) -> np.ndarray:
        return self.forward(x, ForwardContext(recording=False) if ctx is None else ctx)

    def __repr__(self) -> str:
        child_repr = ", ".join(f"{k}={v!r}" for k, v in self._modules.items())
        return f"{type(self).__name__}({child_repr})"
