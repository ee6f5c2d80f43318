"""The paper's claims, reproduced: one script, one record (``REPRO.json``).

Every value the paper reports is set beside the value this repo
reproduces, in two halves:

* **analytic** (seconds) — the eleven Fig. 2 throughput bars from the
  calibrated device/link model, with each bar's plan chosen by the
  adaptation policy (so a failed bar is a decision, not a table entry);
  the abstract's 2.5x / 2x High-Throughput ratios; and the model-only
  ablations (link-cost sweep, partition split point, width vs depth
  partitioning, the worker's memory budget).  A pure function of the code:
  tier-1 (``tests/test_benchmarks.py``) re-derives it through
  :func:`analytic_facts`, compares ``==`` with the committed block, and
  asserts the paper's tolerances on the recomputed values.

* **trained** (minutes; full-fidelity recipe) — the eleven Fig. 2 accuracy
  bars, per-sub-network accuracy of all three families, and the training
  ablations (Algorithm 1 vs Dynamic-only, its iteration count, the
  sub-network count).  Absolute accuracy differs slightly from the paper
  (synthetic MNIST stand-in); what this script gates before it writes is
  the paper's band and ordering, :func:`check_trained`.

Run (CI does, on every push)::

    PYTHONPATH=src python benchmarks/bench_paper.py

``REPRO.json`` carries the environment it was produced in; nothing in it
is wall-clock-derived.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from common import ROOT, env_record
from repro.comm.latency_model import CommLatencyModel
from repro.data.synth_mnist import SynthMNISTConfig, load_synth_mnist
from repro.device.cost import subnet_param_count
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.layer_partition import LayerPartitionModel
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.graph import BlockPartition
from repro.engine.modes import MASTER
from repro.engine.plan import solo_plan
from repro.experiments.calibration import PAPER_FIG2, PAPER_HT_VS_DYNAMIC, PAPER_HT_VS_STATIC
from repro.experiments.fig2 import fig2_plans, run_fig2
from repro.experiments.report import shape_checks
from repro.models.fluid_dydnn import FluidDyDNN
from repro.models.zoo import build_model
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import WidthSpec
from repro.training.incremental import IncrementalTrainer
from repro.training.nested_incremental import NestedIncrementalTrainer, NestedTrainConfig
from repro.training.recipes import RecipeConfig, train_family
from repro.training.trainer import TrainConfig
from repro.utils.rng import make_rng

RECORD_PATH = ROOT / "REPRO.json"
FAMILIES = ("static", "dynamic", "fluid")

#: The full-fidelity Fig. 2 recipe.
FIG2_DATA = SynthMNISTConfig(num_train=4000, num_test=1000, seed=0)
FIG2_RECIPE = RecipeConfig(
    stage=TrainConfig(epochs=1, batch_size=64, lr=0.05, momentum=0.9), niters=2
)
FIG2_SEED = 7

#: The training ablations share one (smaller) dataset and stage config.
ABLATION_DATA = SynthMNISTConfig(num_train=2500, num_test=600, seed=2)
ABLATION_STAGE = TrainConfig(epochs=1, lr=0.05)

COMM_SCALES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
SPLITS = (2, 4, 6, 8, 10, 12, 14)


def bar_key(family: str, scenario: str, mode: str) -> str:
    return f"{family}/{scenario}/{mode}"


# -- analytic half ------------------------------------------------------------


def analytic_facts() -> dict:
    """Everything the calibrated model alone decides (JSON-shaped)."""
    master, worker, comm = jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    bars: Dict[str, dict] = {}
    for family in FAMILIES:
        model = build_model(family, rng=make_rng(0))  # plans need shapes, not weights
        tm = SystemThroughputModel(model.net, master, worker, comm)
        for scenario, mode, plan in fig2_plans(model, tm):
            bars[bar_key(family, scenario, mode)] = {
                "paper": PAPER_FIG2[(family, scenario, mode)][0],
                "reproduced": tm.evaluate_plan(plan).throughput_ips,
                "plan": plan.describe(),
            }
    ht = bars["fluid/master_and_worker/HT"]["reproduced"]
    net, ws = model.net, model.net.width_spec
    full, lower50, upper50 = ws.full(), ws.find("lower50"), ws.find("upper50")

    def throughput_model(link: CommLatencyModel, **kwargs) -> SystemThroughputModel:
        return SystemThroughputModel(net, master, worker, link, **kwargs)

    comm_sweep: List[dict] = []
    for scale in COMM_SCALES:
        tm = throughput_model(
            CommLatencyModel(
                base_latency_s=comm.base_latency_s * scale,
                bandwidth_bytes_per_s=(
                    comm.bandwidth_bytes_per_s / scale if scale else 1e15
                ),
            )
        )
        comm_sweep.append(
            {
                "scale": scale,
                "ha": tm.ha_throughput(full).throughput_ips,
                "ht": tm.ht_throughput(lower50, upper50).throughput_ips,
                "solo": tm.evaluate_plan(solo_plan(MASTER, lower50.name)).throughput_ips,
            }
        )
    tm = throughput_model(comm)
    depth = LayerPartitionModel(net, master, worker, comm)
    partition_rows = subnet_param_count(net, full) // 2  # the worker's share
    return {
        "fig2_throughput_ips": bars,
        "ht_speedup": {
            "vs_static": {
                "paper": PAPER_HT_VS_STATIC,
                "reproduced": ht / bars["static/master_and_worker/HA"]["reproduced"],
            },
            "vs_dynamic": {
                "paper": PAPER_HT_VS_DYNAMIC,
                "reproduced": ht / bars["dynamic/master_and_worker/HT"]["reproduced"],
            },
        },
        "ablations": {
            # HA degrades with link cost, HT never touches the link.
            "comm_latency": comm_sweep,
            # The paper's 50/50 split: HA throughput by split point.
            "partition_split_ha_ips": {
                str(split): throughput_model(
                    comm, partition=BlockPartition.two_way(split, ws.max_width)
                ).ha_throughput(full).throughput_ips
                for split in SPLITS
            },
            # Width partitioning (the paper's) vs a depth pipeline.
            "width_vs_depth_ips": {
                "width_ha": tm.ha_throughput(full).throughput_ips,
                "width_ht": tm.ht_throughput(lower50, upper50).throughput_ips,
                "depth_sequential_best": depth.best_cut(full, pipelined=False)[1],
                "depth_pipelined_best": depth.best_cut(full, pipelined=True)[1],
                "depth_survives_single_failure": depth.survives_single_failure(),
            },
            # A separate standalone model beside the worker's partition rows
            # does not fit the device; the Fluid worker's rows *are* its model.
            "worker_memory_params": {
                "fluid_worker": partition_rows,
                "disjoint_worker": partition_rows + subnet_param_count(net, upper50),
                "capacity": worker.memory_capacity_params,
            },
        },
    }


# -- trained half -------------------------------------------------------------


def _nested(model, train_set, niters: int):
    NestedIncrementalTrainer().fit(
        model, train_set, NestedTrainConfig(base=ABLATION_STAGE, niters=niters),
        rng=make_rng(1),
    )
    return model


def training_ablations(log=print) -> dict:
    """Algorithm 1 against its alternatives, on one shared dataset."""
    train_set, test_set = load_synth_mnist(ABLATION_DATA)
    log("ablations: fluid (Algorithm 1, niters=2; the paper's four sub-networks)")
    fluid = _nested(build_model("fluid", rng=make_rng(0)), train_set, 2)
    log("ablations: fluid, niters=1")
    one_shot = _nested(build_model("fluid", rng=make_rng(0)), train_set, 1)
    log("ablations: dynamic-only (same budget, no upper phase)")
    dynamic = build_model("dynamic", rng=make_rng(0))
    for i in range(2):
        IncrementalTrainer().fit(
            dynamic, train_set, ABLATION_STAGE.scaled_lr(0.5**i), rng=make_rng(1),
            stage_prefix=f"iter{i}/",
        )
    log("ablations: fluid with a two-member family")
    two = WidthSpec(max_width=16, lower_widths=(8, 16), split=8, num_convs=3)
    coarse = _nested(FluidDyDNN(SlimmableConvNet(two, rng=make_rng(0))), train_set, 2)
    return {
        "data": {"num_train": ABLATION_DATA.num_train, "num_test": ABLATION_DATA.num_test,
                 "seed": ABLATION_DATA.seed},
        "subnet_accuracy": {
            "fluid_niters2_four_subnets": fluid.evaluate_all(test_set),
            "fluid_niters1": one_shot.evaluate_all(test_set),
            "dynamic_only": dynamic.evaluate_all(test_set),
            "fluid_two_subnets": coarse.evaluate_all(test_set),
        },
    }


def trained_facts(log=print) -> Tuple[dict, List[str]]:
    """The trained half, and the Fig. 2 shape checks it fails (none, when
    the paper is reproduced: Fluid HA within a point of Static, HT below HA,
    full-width models >= 95%, and the throughput pattern)."""
    train_set, test_set = load_synth_mnist(FIG2_DATA)
    models = {}
    for family in FAMILIES:
        log(f"fig2: training {family}")
        models[family], _ = train_family(
            family, train_set, rng=make_rng(FIG2_SEED), config=FIG2_RECIPE
        )
    result = run_fig2(models, test_set)
    shape_failures = [
        f"{c.name}: {c.detail}" for c in shape_checks(result) if not c.passed
    ]
    facts = {
        "fig2": {
            "data": {"num_train": FIG2_DATA.num_train, "num_test": FIG2_DATA.num_test,
                     "seed": FIG2_DATA.seed},
            "seed": FIG2_SEED,
            "accuracy_pct": {
                bar_key(c.family, c.scenario, c.mode): {
                    "paper": PAPER_FIG2[(c.family, c.scenario, c.mode)][1],
                    "reproduced": c.accuracy_pct,
                }
                for c in result.cells
            },
            "subnet_accuracy": {
                family: model.evaluate_all(test_set) for family, model in models.items()
            },
        },
        "ablations": training_ablations(log),
    }
    return facts, shape_failures


def check_trained(trained: dict) -> List[str]:
    """The paper's band and ordering; returns the violated claims."""
    fig2, failures = trained["fig2"], []

    def claim(ok: bool, text: str) -> None:
        if not ok:
            failures.append(text)

    for key, bar in fig2["accuracy_pct"].items():
        if key.endswith("/failed"):
            claim(bar["reproduced"] == 0.0, f"{key}: failed bar is not exactly 0")
        else:
            claim(bar["reproduced"] >= 93.0, f"{key}: {bar['reproduced']:.1f}% < 93%")
    by_family = fig2["subnet_accuracy"]
    # The mechanism behind Dynamic's Fig. 1c failure, and Static's.
    claim(by_family["dynamic"]["upper50"] < 0.3, "dynamic upper50 is not at chance")
    claim(by_family["static"]["lower25"] < 0.5, "static lower25 is not at chance")

    runs = trained["ablations"]["subnet_accuracy"]
    fluid, one_shot = runs["fluid_niters2_four_subnets"], runs["fluid_niters1"]
    dynamic, coarse = runs["dynamic_only"], runs["fluid_two_subnets"]
    claim(fluid["upper50"] > 0.7 and fluid["lower100"] > 0.9,
          f"Algorithm 1 lost a half or the combined model: {fluid}")
    claim(dynamic["upper50"] < 0.3 and dynamic["lower100"] > 0.9,
          f"dynamic-only: upper slice usable or combined model broken: {dynamic}")
    claim(fluid["lower100"] >= one_shot["lower100"] - 0.02,
          "a second fine-tuning iteration damaged the 100% model")
    claim(one_shot["upper50"] > 0.5, "one-shot schedule leaves upper50 at chance")
    claim(all(acc > 0.5 for acc in fluid.values()),
          f"a sub-network is unusable at the recommended niters: {fluid}")
    for name, accs in (("four", fluid), ("two", coarse)):
        claim(accs["lower50"] > 0.7 and accs["upper50"] > 0.7 and accs["lower100"] > 0.8,
              f"{name}-member family is not fluid: {accs}")
    claim(len(fluid) > len(coarse), "four-member family exposes no extra operating points")
    return failures


def main(argv=None) -> int:
    import argparse

    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    analytic = analytic_facts()
    for key, bar in analytic["fig2_throughput_ips"].items():
        print(f"  {key:34s} paper {bar['paper']:5.1f}  reproduced {bar['reproduced']:6.2f} img/s")
    for name, ratio in analytic["ht_speedup"].items():
        print(f"  HT {name}: paper {ratio['paper']}x  reproduced {ratio['reproduced']:.2f}x")
    trained, failures = trained_facts()
    for key, bar in trained["fig2"]["accuracy_pct"].items():
        print(f"  {key:34s} paper {bar['paper']:5.1f}  reproduced {bar['reproduced']:6.2f} %")
    failures += check_trained(trained)
    if failures:
        print("NOT REPRODUCED:\n  " + "\n  ".join(failures))
        return 1
    payload = {
        "benchmark": "benchmarks/bench_paper.py",
        "env": env_record(),
        "analytic": analytic,
        "trained": trained,
    }
    RECORD_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {RECORD_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
