"""The Fig. 2 experiment: throughput and accuracy across availability scenarios.

For each model family (Static / Dynamic / Fluid) and each scenario
(Master+Worker, Only Master, Only Worker), :func:`fig2_plans` asks the
adaptation policy for its plan — High-Throughput and High-Accuracy variants
where both devices are up.  The paper record (:mod:`repro.experiments.paper`)
scores each plan with the analytical throughput model (the paper's
offline-measured methodology) and, through :func:`plan_accuracy`, with
the sub-networks' measured accuracy on the test set.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.distributed.throughput import SystemThroughputModel
from repro.engine.modes import ALL_SCENARIOS, ExecutionMode, Scenario
from repro.engine.plan import DeploymentPlan
from repro.models.base import ModelFamily
from repro.runtime.policy import TARGET_ACCURACY, TARGET_THROUGHPUT, AdaptationPolicy


def plan_accuracy(
    model: ModelFamily,
    plan: DeploymentPlan,
    accuracy: Mapping[str, float],
    tm: SystemThroughputModel,
) -> float:
    """Accuracy (%) delivered by a deployment plan, from ``accuracy``, the
    family's per-sub-network accuracy table (:meth:`ModelFamily.evaluate_all`).

    * FAILED: 0 — no inference happens.
    * HA: accuracy of the jointly computed combined model.
    * SOLO: accuracy of the lone standalone sub-network.
    * HT: the two devices answer different inputs with different
      sub-networks; stream accuracy is the throughput-weighted mixture.
    """
    if plan.mode is ExecutionMode.FAILED:
        return 0.0
    if plan.mode is ExecutionMode.HIGH_ACCURACY:
        return 100.0 * accuracy[plan.combined_subnet]
    if plan.mode is ExecutionMode.SOLO:
        (assignment,) = plan.assignments
        return 100.0 * accuracy[assignment.subnet]
    # HIGH_THROUGHPUT: throughput-weighted mixture over the parallel streams.
    total_weighted = 0.0
    total_rate = 0.0
    for assignment in plan.assignments:
        spec = model.spec(assignment.subnet)
        rate = 1.0 / tm.standalone_latency(assignment.device, spec)
        total_weighted += rate * accuracy[assignment.subnet]
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
