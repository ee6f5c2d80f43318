"""Deadline-driven sub-network width selection.

The paper's weight store serves many widths; this policy decides *which*
width a given request gets.  The rule is the slimmable-network latency /
accuracy tradeoff made operational: **serve the widest slice predicted to
meet the deadline** — wider means better accuracy, narrower means lower
latency, and the deadline says how much latency the caller will tolerate.

Predictions start from the analytical cost model
(:func:`repro.device.cost.subnet_flops` through a
:class:`~repro.device.profiles.DeviceProfile`), which gets the *relative*
ordering of widths right but knows nothing about this process's
wall-clock speed.  An online calibration layer fixes that: a per-width
EWMA of observed service times (exact once a width has been served) plus
a pooled observed/model ratio that transfers calibration to widths not
yet observed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.device.cost import subnet_flops, subnet_num_layers
from repro.device.profiles import jetson_nx_master
from repro.scheduler.telemetry import EWMA
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import SubNetSpec


class WidthPolicy:
    """Pick the widest candidate whose calibrated latency fits the budget.

    ``candidates`` are kept sorted widest-first (by model FLOPs), so
    :meth:`choose` scans until the first one that fits; ``min_width`` /
    ``max_width`` name the narrowest / widest candidates the caller's SLA
    allows.  Falls back to the narrowest allowed width when nothing fits
    — admission decides whether even that is worth queuing.
    """

    def __init__(
        self,
        net: SlimmableConvNet,
        candidates: Sequence[SubNetSpec],
        *,
        plan_flops: Optional[Mapping[str, int]] = None,
    ) -> None:
        if not candidates:
            raise ValueError("WidthPolicy needs at least one candidate spec")
        profile = jetson_nx_master()
        layers = subnet_num_layers(net)
        # Widths with a compiled plan seed their base cost from the plan's
        # own FLOP count (derived from the compiled geometry) — the same
        # numbers the plan will actually execute; the rest fall back to
        # the analytical cost model.
        plan_flops = plan_flops or {}
        self._base_s: Dict[str, float] = {
            spec.name: profile.compute_time(
                plan_flops.get(spec.name, None) or subnet_flops(net, spec), layers
            )
            for spec in candidates
        }
        # Widest (most FLOPs) first: choose() returns the first fit.
        self.candidates: Tuple[SubNetSpec, ...] = tuple(
            sorted(candidates, key=lambda s: self._base_s[s.name], reverse=True)
        )
        self._by_name = {spec.name: spec for spec in self.candidates}
        self._observed: Dict[str, EWMA] = {
            spec.name: EWMA() for spec in self.candidates
        }
        self._scale = EWMA()  # pooled observed/model wall-clock ratio

    # -- calibration ---------------------------------------------------------

    def observe(self, name: str, service_s: float) -> None:
        """Record one observed service time for width ``name``."""
        if name not in self._observed:
            raise KeyError(f"unknown width {name!r}")
        if service_s < 0:
            raise ValueError("service time cannot be negative")
        self._observed[name].observe(service_s)
        self._scale.observe(service_s / self._base_s[name])

    def predict(self, name: str) -> float:
        """Calibrated service-time prediction for width ``name``.

        Preference order: the width's own EWMA; the analytical cost scaled
        by the pooled ratio learned on *other* widths; the raw analytical
        cost (relative ordering only, before any observation).
        """
        if name not in self._base_s:
            raise KeyError(f"unknown width {name!r}")
        own = self._observed[name].value
        if own is not None:
            return own
        scale = self._scale.value
        return self._base_s[name] * (scale if scale is not None else 1.0)

    # -- selection -----------------------------------------------------------

    def allowed(
        self, min_width: Optional[str] = None, max_width: Optional[str] = None
    ) -> List[SubNetSpec]:
        """Candidates within ``[min_width, max_width]``, widest first."""
        lo = self._rank(min_width) if min_width is not None else len(self.candidates) - 1
        hi = self._rank(max_width) if max_width is not None else 0
        if hi > lo:
            raise ValueError(
                f"min_width {min_width!r} is wider than max_width {max_width!r}"
            )
        return list(self.candidates[hi : lo + 1])

    def narrowest(
        self, min_width: Optional[str] = None, max_width: Optional[str] = None
    ) -> SubNetSpec:
        return self.allowed(min_width, max_width)[-1]

    def narrower_than(self, name: str, min_width: Optional[str] = None) -> Optional[SubNetSpec]:
        """The next candidate narrower than ``name`` (for hedged retries)."""
        rank = self._rank(name)
        floor = self._rank(min_width) if min_width is not None else len(self.candidates) - 1
        if rank >= floor:
            return None
        return self.candidates[rank + 1]

    def choose(
        self,
        budget_s: float,
        *,
        min_width: Optional[str] = None,
        max_width: Optional[str] = None,
    ) -> Tuple[SubNetSpec, float]:
        """Widest allowed spec predicted to finish within ``budget_s``.

        Returns ``(spec, predicted_s)``.  When no allowed width fits, the
        narrowest allowed one is returned (with its honest prediction) —
        rejecting outright is admission's call, not the width policy's.
        """
        allowed = self.allowed(min_width, max_width)
        for spec in allowed:
            predicted = self.predict(spec.name)
            if predicted <= budget_s:
                return spec, predicted
        fallback = allowed[-1]
        return fallback, self.predict(fallback.name)

    def _rank(self, name: Optional[str]) -> int:
        for i, spec in enumerate(self.candidates):
            if spec.name == name:
                return i
        raise KeyError(f"unknown width {name!r}")

    def calibration_snapshot(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-width model cost, EWMA and prediction (for reports/debugging)."""
        return {
            spec.name: {
                "model_s": self._base_s[spec.name],
                "observed_ewma_s": self._observed[spec.name].value,
                "predicted_s": self.predict(spec.name),
            }
            for spec in self.candidates
        }
