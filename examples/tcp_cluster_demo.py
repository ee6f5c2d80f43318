"""Live two-process edge cluster over real TCP — with a power failure.

Stands up a Worker device as a separate OS process (the paper's second
Jetson board), runs both inference modes over real sockets, then kills the
worker process mid-session and shows the Fluid failover: the Master detects
the death and keeps serving on its own certified sub-network.  Each mode
also prints its analytic throughput on the emulated Jetson pair, the number
Fig. 2 and the adaptation policy use.

Run:  python examples/tcp_cluster_demo.py   (about a minute)
"""

import numpy as np

from repro.comm.latency_model import CommLatencyModel
from repro.data.synth_mnist import SynthMNISTConfig, load_synth_mnist
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.cluster import LocalCluster
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.endpoints import EndpointUnavailable
from repro.engine.modes import MASTER, WORKER
from repro.engine.plan import ha_plan, ht_plan, solo_plan
from repro.training.recipes import RecipeConfig, train_family
from repro.utils.rng import make_rng


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def main() -> None:
    print("Training a small Fluid DyDNN...")
    train_set, test_set = load_synth_mnist(SynthMNISTConfig(num_train=2000, num_test=400, seed=1))
    config = RecipeConfig(epochs=1, niters=2)
    model, _ = train_family("fluid", train_set, rng=make_rng(3), config=config)
    ws = model.width_spec
    # The profiles LocalCluster's master and worker processes run.
    throughput = SystemThroughputModel(
        model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )

    def show_throughput(plan) -> None:
        ips = throughput.evaluate_plan(plan).throughput_ips
        print(f"  analytic {plan.mode.value} throughput: {ips:.1f} img/s")

    print("Spawning the worker device as a separate OS process (TCP on localhost)...")
    with LocalCluster(model.net) as cluster:
        master = cluster.master
        engine = master.engine  # every deployment below is one engine.execute
        print(f"  worker alive: {master.ping_worker()}")

        x, y = test_set[np.arange(128)]

        print("\n[HA mode] joint 100% model, per-layer activation exchange over TCP:")
        plan = ha_plan(ws.full().name)
        logits = engine.execute(plan, x).logits
        print(f"  accuracy on 128 images: {accuracy(logits, y):.3f}")
        show_throughput(plan)

        print("[HT mode] independent halves on parallel streams:")
        half = len(x) // 2
        plan = ht_plan("lower50", "upper50")
        streams = engine.execute(plan, streams={MASTER: x[:half], WORKER: x[half:]}).streams
        logits_m, logits_w = streams[MASTER], streams[WORKER]
        mixed = (accuracy(logits_m, y[:half]) + accuracy(logits_w, y[half:])) / 2
        print(f"  mixed-stream accuracy: {mixed:.3f}")
        show_throughput(plan)

        print("\n*** Killing the worker process (simulated power outage) ***")
        cluster.kill_worker()
        try:
            engine.execute(solo_plan(WORKER, "upper50"), x[:4])
        except EndpointUnavailable as exc:
            print(f"  master detected the failure: {type(exc).__name__}: {exc}")
        print(f"  heartbeat: {master.ping_worker()}")

        print("[failover] master continues standalone on its certified lower 50% model:")
        plan = solo_plan(MASTER, "lower50")
        logits = engine.execute(plan, x).logits
        print(f"  accuracy on 128 images: {accuracy(logits, y):.3f}")
        show_throughput(plan)
        print("\nA Static DNN in the same situation reports zero throughput —")
        print("its resident half-weights are not certified to run alone.")


if __name__ == "__main__":
    main()
