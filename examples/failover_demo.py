"""Failure-timeline demo: how each model family rides out device failures.

Replays the same scripted failure sequence (worker dies at t=10s, recovers
at t=25s; master dies at t=40s) against Static, Dynamic and Fluid systems
and prints each system's plan transitions — the dynamic version of the
paper's Fig. 2 scenarios.

Run:  python examples/failover_demo.py   (finishes in seconds)
"""

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.faults.plan import FaultEvent, FaultPlan
from repro.models.zoo import build_model
from repro.runtime.controller import SystemController
from repro.runtime.policy import AdaptationPolicy
from repro.utils.rng import make_rng


def main() -> None:
    schedule = FaultPlan(
        [
            FaultEvent(10.0, "worker", "crash"),
            FaultEvent(25.0, "worker", "recover"),
            FaultEvent(40.0, "master", "crash"),
        ]
    )
    horizon = 55.0
    print("Failure script: worker down @10s, worker back @25s, master down @40s\n")

    for family in ("static", "dynamic", "fluid"):
        model = build_model(family, rng=make_rng(0))
        tm = SystemThroughputModel(
            model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        controller = SystemController(AdaptationPolicy(model, tm), tm)
        timeline = controller.simulate(schedule, horizon_s=horizon)

        print(f"=== {family.upper()} DNN ===")
        for transition in timeline.transitions:
            alive = ",".join(sorted(transition.alive)) or "none"
            print(
                f"  t={transition.time_s:5.1f}s  alive=[{alive:13s}]  "
                f"{transition.plan.describe():45s} "
                f"{transition.throughput.throughput_ips:5.1f} img/s"
            )
        print(f"  downtime: {timeline.downtime():.0f}s of {horizon:.0f}s\n")


if __name__ == "__main__":
    main()
