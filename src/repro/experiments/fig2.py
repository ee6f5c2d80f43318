"""The Fig. 2 experiment: throughput and accuracy across availability scenarios.

For each model family (Static / Dynamic / Fluid) and each scenario
(Master+Worker, Only Master, Only Worker) the harness asks the adaptation
policy for its plan — High-Throughput and High-Accuracy variants where both
devices are up — then scores the plan with the analytical throughput model
(the paper's offline-measured methodology) and with measured accuracy on
the test set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.comm.latency_model import CommLatencyModel
from repro.data.dataset import ArrayDataset
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.modes import ALL_SCENARIOS, ExecutionMode, Scenario
from repro.distributed.plan import DeploymentPlan
from repro.distributed.throughput import SystemThroughputModel
from repro.models.base import ModelFamily
from repro.runtime.policy import TARGET_ACCURACY, TARGET_THROUGHPUT, AdaptationPolicy


@dataclass(frozen=True)
class Fig2Cell:
    """One bar of Fig. 2."""

    family: str
    scenario: str
    mode: str  # "HA" | "HT" | "solo" | "failed"
    throughput_ips: float
    accuracy_pct: float
    plan: str  # human-readable plan description


@dataclass
class Fig2Result:
    """All bars, with lookup and ratio helpers."""

    cells: List[Fig2Cell] = field(default_factory=list)

    def add(self, cell: Fig2Cell) -> None:
        self.cells.append(cell)

    def get(self, family: str, scenario: str, mode: str) -> Fig2Cell:
        for cell in self.cells:
            if (cell.family, cell.scenario, cell.mode) == (family, scenario, mode):
                return cell
        raise KeyError(f"no cell for {(family, scenario, mode)}")

    def ht_speedup_vs_static(self) -> float:
        """The abstract's 2.5x claim."""
        fluid = self.get("fluid", Scenario.BOTH.value, "HT").throughput_ips
        static = self.get("static", Scenario.BOTH.value, "HA").throughput_ips
        return fluid / static

    def ht_speedup_vs_dynamic(self) -> float:
        """The abstract's 2x claim."""
        fluid = self.get("fluid", Scenario.BOTH.value, "HT").throughput_ips
        dynamic = self.get("dynamic", Scenario.BOTH.value, "HT").throughput_ips
        return fluid / dynamic


def plan_accuracy(
    model: ModelFamily,
    plan: DeploymentPlan,
    test_set: ArrayDataset,
    tm: SystemThroughputModel,
) -> float:
    """Accuracy (%) delivered by a deployment plan.

    * FAILED: 0 — no inference happens.
    * HA: accuracy of the jointly computed combined model.
    * SOLO: accuracy of the lone standalone sub-network.
    * HT: the two devices answer different inputs with different
      sub-networks; stream accuracy is the throughput-weighted mixture.
    """
    if plan.mode is ExecutionMode.FAILED:
        return 0.0
    if plan.mode is ExecutionMode.HIGH_ACCURACY:
        return 100.0 * model.evaluate(plan.combined_subnet, test_set)
    if plan.mode is ExecutionMode.SOLO:
        (assignment,) = plan.assignments
        return 100.0 * model.evaluate(assignment.subnet, test_set)
    # HIGH_THROUGHPUT: throughput-weighted mixture over the parallel streams.
    total_weighted = 0.0
    total_rate = 0.0
    for assignment in plan.assignments:
        spec = model.spec(assignment.subnet)
        rate = 1.0 / tm.standalone_latency(assignment.device, spec)
        total_weighted += rate * model.evaluate(assignment.subnet, test_set)
        total_rate += rate
    return 100.0 * total_weighted / total_rate


def fig2_plans(
    model: ModelFamily, tm: SystemThroughputModel
) -> List[Tuple[str, str, DeploymentPlan]]:
    """``(scenario, mode, plan)`` for every Fig. 2 bar of one family, as
    the adaptation policy decides it (failed bars included)."""
    bars: List[Tuple[str, str, DeploymentPlan]] = []
    for scenario in ALL_SCENARIOS:
        if scenario is Scenario.BOTH:
            cells = _both_devices_cells(model, tm, scenario)
        else:
            plan = AdaptationPolicy(model, tm).plan_for_scenario(scenario)
            mode = "failed" if plan.mode is ExecutionMode.FAILED else "solo"
            cells = [(mode, plan)]
        bars.extend((scenario.value, mode, plan) for mode, plan in cells)
    return bars


def run_fig2(
    models: Dict[str, ModelFamily],
    test_set: ArrayDataset,
) -> Fig2Result:
    """Regenerate Fig. 2 from trained models.

    Args:
        models: mapping with keys ``static``, ``dynamic``, ``fluid``.
        test_set: held-out evaluation data.
    """
    master, worker, comm = jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    result = Fig2Result()

    for family in ("static", "dynamic", "fluid"):
        if family not in models:
            raise KeyError(f"models dict missing family {family!r}")
        model = models[family]
        tm = SystemThroughputModel(model.net, master, worker, comm)
        for scenario, mode, plan in fig2_plans(model, tm):
            result.add(
                Fig2Cell(
                    family=family,
                    scenario=scenario,
                    mode=mode,
                    throughput_ips=tm.evaluate_plan(plan).throughput_ips,
                    accuracy_pct=plan_accuracy(model, plan, test_set, tm),
                    plan=plan.describe(),
                )
            )
    return result


def _both_devices_cells(
    model: ModelFamily, tm: SystemThroughputModel, scenario: Scenario
) -> List[Tuple[str, DeploymentPlan]]:
    """HT and HA bars for the both-devices scenario (deduplicated)."""
    ht_policy = AdaptationPolicy(model, tm, target=TARGET_THROUGHPUT)
    ha_policy = AdaptationPolicy(model, tm, target=TARGET_ACCURACY)
    ht = ht_policy.plan_for_scenario(scenario)
    ha = ha_policy.plan_for_scenario(scenario)
    if ht == ha:
        # Static DNN: there is no throughput lever, only the HA deployment.
        label = "HA" if ha.mode is ExecutionMode.HIGH_ACCURACY else "failed"
        return [(label, ha)]
    return [("HT", ht), ("HA", ha)]
