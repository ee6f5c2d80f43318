"""Adaptation policy: map (model family, alive devices, target) to a plan.

This is the paper's decision logic made explicit.  The policy only ever
deploys *certified* sub-networks whose weights are resident on the target
device and fit its memory — which is exactly why Static DNNs fail when
either device dies, Dynamic DNNs survive only a Worker death, and Fluid
DyDNNs survive either (paper Fig. 1b/1c).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.device.cost import subnet_param_count
from repro.device.profiles import DeviceProfile
from repro.distributed.modes import ExecutionMode, Scenario
from repro.distributed.partition import MASTER, WORKER, WidthPartition
from repro.distributed.plan import (
    DeploymentPlan,
    failed_plan,
    ha_plan,
    ht_plan,
    solo_plan,
)
from repro.distributed.throughput import SystemThroughputModel
from repro.models.base import ModelFamily
from repro.slimmable.spec import SubNetSpec

TARGET_ACCURACY = "accuracy"
TARGET_THROUGHPUT = "throughput"
TARGETS = (TARGET_ACCURACY, TARGET_THROUGHPUT)


class AdaptationPolicy:
    """Chooses deployment plans from certifications, residency and capacity."""

    def __init__(
        self,
        model: ModelFamily,
        throughput_model: SystemThroughputModel,
        *,
        target: str = TARGET_ACCURACY,
    ) -> None:
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
        self.model = model
        self.tm = throughput_model
        self.partition = WidthPartition.at_spec_split(model.width_spec)
        self.target = target
        self.profiles: Dict[str, DeviceProfile] = throughput_model.profiles

    # -- capability queries ------------------------------------------------------

    def deployable_standalone(self, role: str) -> List[SubNetSpec]:
        """Certified, resident, memory-feasible standalone specs for a device."""
        options = self.partition.survivor_options(
            role, self.model.certified_standalone
        )
        capacity = self.profiles[role].memory_capacity_params
        return [
            spec
            for spec in options
            if subnet_param_count(self.tm.net, spec) <= capacity
        ]

    def best_standalone(self, role: str) -> Optional[SubNetSpec]:
        """Widest feasible standalone spec (accuracy grows with width)."""
        options = self.deployable_standalone(role)
        if not options:
            return None
        return max(options, key=lambda s: s.last_slice.width)

    def combined_spec(self) -> Optional[SubNetSpec]:
        """Largest certified combined model for HA mode (needs both devices)."""
        names = self.model.certified_combined
        if not names:
            return None
        specs = [self.model.spec(n) for n in names]
        return max(specs, key=lambda s: s.last_slice.width)

    def ht_pair(self) -> Optional[tuple]:
        """Independent (master, worker) pair for true parallel HT mode."""
        master_spec = self.best_standalone(MASTER)
        worker_spec = self.best_standalone(WORKER)
        if master_spec is None or worker_spec is None:
            return None
        return master_spec, worker_spec

    # -- planning ------------------------------------------------------------------

    def plan(self, alive: FrozenSet[str]) -> DeploymentPlan:
        """The plan for the given set of alive devices."""
        alive = frozenset(alive)
        if alive == frozenset({MASTER, WORKER}):
            return self._plan_both()
        if alive == frozenset({MASTER}):
            return self._plan_solo(MASTER)
        if alive == frozenset({WORKER}):
            return self._plan_solo(WORKER)
        return failed_plan("no devices alive")

    def plan_for_scenario(self, scenario: Scenario) -> DeploymentPlan:
        return self.plan(scenario.alive)

    def _plan_solo(self, role: str) -> DeploymentPlan:
        spec = self.best_standalone(role)
        if spec is None:
            return failed_plan(
                f"{role}'s resident weights include no certified standalone sub-network"
            )
        return solo_plan(role, spec.name)

    def _plan_both(self) -> DeploymentPlan:
        candidates: List[DeploymentPlan] = []
        combined = self.combined_spec()
        if combined is not None:
            candidates.append(ha_plan(combined.name))
        pair = self.ht_pair()
        if pair is not None:
            candidates.append(ht_plan(pair[0].name, pair[1].name))
        else:
            # Degraded "HT": the best lone device keeps serving while the
            # other idles (the Dynamic DNN's only throughput lever).
            solo = self._plan_solo(MASTER)
            if solo.mode != ExecutionMode.FAILED:
                candidates.append(solo)
        if not candidates:
            return failed_plan("no certified deployment for two devices")
        if self.target == TARGET_ACCURACY:
            ha = [p for p in candidates if p.mode == ExecutionMode.HIGH_ACCURACY]
            if ha:
                return ha[0]
            return candidates[0]
        return max(candidates, key=lambda p: self.tm.evaluate_plan(p).throughput_ips)
