"""System controller: the reliability state machine.

Feeds liveness observations into the adaptation policy and records every
plan transition.  :meth:`simulate` replays a scripted failure timeline and
returns the sequence of operating points — the dynamic version of the
paper's three static Fig. 2 scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.distributed.throughput import SystemThroughputModel, ThroughputBreakdown
from repro.engine.modes import ExecutionMode
from repro.engine.plan import DeploymentPlan
from repro.faults.plan import FaultPlan
from repro.runtime.monitor import ScheduleMonitor
from repro.runtime.policy import AdaptationPolicy
from repro.utils.logging import get_logger


@dataclass(frozen=True)
class Transition:
    """One plan change, with the liveness observation that caused it."""

    time_s: float
    alive: FrozenSet[str]
    plan: DeploymentPlan
    throughput: ThroughputBreakdown


@dataclass
class Timeline:
    """Ordered plan transitions over a simulated run."""

    transitions: List[Transition] = field(default_factory=list)
    horizon_s: Optional[float] = None

    def add(self, transition: Transition) -> None:
        self.transitions.append(transition)

    def modes(self) -> List[ExecutionMode]:
        return [t.plan.mode for t in self.transitions]

    def downtime(self) -> float:
        """Total simulated seconds spent in FAILED state.

        A terminal FAILED interval extends to the simulation horizon (when
        known) — a system that died and never re-planned is down until the
        end of the run.
        """
        total = 0.0
        for i, t in enumerate(self.transitions):
            if t.plan.mode is ExecutionMode.FAILED:
                if i + 1 < len(self.transitions):
                    end = self.transitions[i + 1].time_s
                elif self.horizon_s is not None:
                    end = max(self.horizon_s, t.time_s)
                else:
                    end = t.time_s
                total += end - t.time_s
        return total


class SystemController:
    """Tracks liveness and re-plans on every change."""

    def __init__(
        self,
        policy: AdaptationPolicy,
        throughput_model: SystemThroughputModel,
    ) -> None:
        self.policy = policy
        self.tm = throughput_model
        self.current_plan: Optional[DeploymentPlan] = None
        self.current_alive: Optional[FrozenSet[str]] = None
        self.logger = get_logger("controller")

    def observe(self, alive: FrozenSet[str], now_s: float = 0.0) -> Transition:
        """Update liveness; re-plan if it changed; return the transition."""
        alive = frozenset(alive)
        if alive != self.current_alive:
            self.current_alive = alive
            self.current_plan = self.policy.plan(alive)
            self.logger.info(
                "t=%.1fs alive=%s -> %s", now_s, sorted(alive), self.current_plan.describe()
            )
        return Transition(
            time_s=now_s,
            alive=alive,
            plan=self.current_plan,
            throughput=self.tm.evaluate_plan(self.current_plan),
        )

    def simulate(self, schedule: FaultPlan, horizon_s: float) -> Timeline:
        """Replay a failure script in one-second steps; record transitions
        only when plans change."""
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        monitor = ScheduleMonitor(schedule)
        timeline = Timeline(horizon_s=horizon_s)
        last_plan: Optional[DeploymentPlan] = None
        t = 0.0
        while t <= horizon_s:
            transition = self.observe(monitor.alive_at(t), now_s=t)
            if transition.plan is not last_plan:
                timeline.add(transition)
                last_plan = transition.plan
            t += 1.0
        return timeline
