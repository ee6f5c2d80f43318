"""The paper record: one recipe, one run, one claim list (``REPRO.json``).

Every value the paper reports is set beside the value this repo
reproduces, in two halves:

* **analytic** (seconds) — the eleven Fig. 2 throughput bars from the
  calibrated device/link model, with each bar's plan chosen by the
  adaptation policy (so a failed bar is a decision, not a table entry);
  the abstract's 2.5x / 2x High-Throughput ratios; and the model-only
  ablations (link-cost sweep, partition split point, width vs depth
  partitioning, the worker's memory budget).  A pure function of the code:
  tier-1 re-derives it through :func:`analytic_facts` and compares ``==``
  with the committed block.

* **trained** (minutes) — the eleven Fig. 2 accuracy bars, per-sub-network
  accuracy of all three families, and the training ablations (Algorithm 1
  vs Dynamic-only, its iteration count, the sub-network count), all on the
  one recipe below (``FIG2_*``, ``ABLATION_*``).  Absolute accuracy differs
  slightly from the paper (synthetic MNIST stand-in).

:func:`reproduce` computes both halves and checks them against
:data:`CLAIMS`: the paper's claims, each named once with its band (the
README's "The paper's claims" lists them).  ``python -m repro fig2`` prints
its report; ``benchmarks/bench_paper.py`` gates on it and writes
``REPRO.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.comm.latency_model import CommLatencyModel
from repro.data.dataset import ArrayDataset
from repro.data.synth_mnist import SynthMNISTConfig, load_synth_mnist
from repro.device.cost import subnet_param_count
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.layer_partition import LayerPartitionModel
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.graph import BlockPartition
from repro.engine.modes import MASTER
from repro.engine.plan import solo_plan
from repro.experiments.calibration import PAPER_FIG2, PAPER_HT_VS_DYNAMIC, PAPER_HT_VS_STATIC
from repro.experiments.fig2 import fig2_plans, plan_accuracy
from repro.models.base import ModelFamily
from repro.models.zoo import build_model
from repro.slimmable.spec import WidthSpec
from repro.training.recipes import RecipeConfig, incremental_pass, train_family, train_incremental
from repro.utils.rng import make_rng

FAMILIES = ("static", "dynamic", "fluid")

#: The Fig. 2 recipe.
FIG2_DATA = SynthMNISTConfig(num_train=4000, num_test=1000, seed=0)
FIG2_RECIPE = RecipeConfig(epochs=1, niters=2)
FIG2_SEED = 7

#: The training ablations share one (smaller) dataset and epochs per stage.
ABLATION_DATA = SynthMNISTConfig(num_train=2500, num_test=600, seed=2)
ABLATION_EPOCHS = 1

COMM_SCALES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
SPLITS = (2, 4, 6, 8, 10, 12, 14)


def bar_key(family: str, scenario: str, mode: str) -> str:
    return f"{family}/{scenario}/{mode}"


def _data_fact(config: SynthMNISTConfig) -> dict:
    return {"num_train": config.num_train, "num_test": config.num_test, "seed": config.seed}


# -- analytic half ------------------------------------------------------------


def _fig2_bars(models: Dict[str, ModelFamily]):
    """``(family, scenario, mode), model, tm, plan`` for every Fig. 2 bar."""
    master, worker, comm = jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    for family in FAMILIES:
        model = models[family]
        tm = SystemThroughputModel(model.net, master, worker, comm)
        for scenario, mode, plan in fig2_plans(model, tm):
            yield (family, scenario, mode), model, tm, plan


def analytic_facts() -> dict:
    """Everything the calibrated model alone decides (JSON-shaped)."""
    # Plans need shapes, not weights.
    models = {family: build_model(family, rng=make_rng(0)) for family in FAMILIES}
    bars = {
        bar_key(*bar): {
            "paper": PAPER_FIG2[bar][0],
            "reproduced": tm.evaluate_plan(plan).throughput_ips,
            "plan": plan.describe(),
        }
        for bar, _, tm, plan in _fig2_bars(models)
    }
    ht = bars["fluid/master_and_worker/HT"]["reproduced"]
    master, worker, comm = jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    net = models["fluid"].net
    ws = net.width_spec
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
    train_incremental(
        model, train_set, RecipeConfig(epochs=ABLATION_EPOCHS, niters=niters), rng=make_rng(1)
    )
    return model


def training_ablations() -> dict:
    """Algorithm 1 against its alternatives, on one shared dataset."""
    train_set, test_set = load_synth_mnist(ABLATION_DATA)
    print("ablations: fluid (Algorithm 1, niters=2; the paper's four sub-networks)")
    fluid = _nested(build_model("fluid", rng=make_rng(0)), train_set, 2)
    print("ablations: fluid, niters=1")
    one_shot = _nested(build_model("fluid", rng=make_rng(0)), train_set, 1)
    print("ablations: dynamic-only (same budget, no upper phase)")
    dynamic = build_model("dynamic", rng=make_rng(0))
    for i in range(2):
        # Each iteration starts its own stream, where train_incremental
        # continues one: the record was taken this way.
        incremental_pass(dynamic, train_set, ABLATION_EPOCHS, i, rng=make_rng(1))
    print("ablations: fluid with a two-member family")
    two = WidthSpec(max_width=16, lower_widths=(8, 16), split=8, num_convs=3)
    coarse = _nested(build_model("fluid", two, rng=make_rng(0)), train_set, 2)
    return {
        "data": _data_fact(ABLATION_DATA),
        "subnet_accuracy": {
            "fluid_niters2_four_subnets": fluid.evaluate_all(test_set),
            "fluid_niters1": one_shot.evaluate_all(test_set),
            "dynamic_only": dynamic.evaluate_all(test_set),
            "fluid_two_subnets": coarse.evaluate_all(test_set),
        },
    }


def fig2_facts(models: Dict[str, ModelFamily], test_set: ArrayDataset) -> dict:
    """Trained models' Fig. 2 accuracy bars and per-sub-network accuracy:
    each sub-network is evaluated once, and each bar reads its table."""
    subnets = {family: model.evaluate_all(test_set) for family, model in models.items()}
    return {
        "accuracy_pct": {
            bar_key(*bar): {
                "paper": PAPER_FIG2[bar][1],
                "reproduced": plan_accuracy(model, plan, subnets[bar[0]], tm),
            }
            for bar, model, tm, plan in _fig2_bars(models)
        },
        "subnet_accuracy": subnets,
    }


def trained_facts() -> dict:
    """The trained half: the three families on the Fig. 2 recipe, then the
    training ablations."""
    train_set, test_set = load_synth_mnist(FIG2_DATA)
    models = {}
    for family in FAMILIES:
        print(f"fig2: training {family}")
        models[family], _ = train_family(
            family, train_set, rng=make_rng(FIG2_SEED), config=FIG2_RECIPE
        )
    return {
        "fig2": {"data": _data_fact(FIG2_DATA), "seed": FIG2_SEED,
                 **fig2_facts(models, test_set)},
        "ablations": training_ablations(),
    }


# -- the claims ---------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One claim of the paper and the band a reproduction must land in.
    ``check`` reads a record and returns (holds, what it measured)."""

    name: str
    band: str
    check: Callable[[dict], Tuple[bool, str]]


@dataclass(frozen=True)
class Verdict:
    """One claim's outcome on one record."""

    claim: Claim
    passed: bool
    detail: str


#: The paper's claims, in report order.
CLAIMS: List[Claim] = []


def _claim(name: str, band: str):
    def register(check):
        CLAIMS.append(Claim(name, band, check))
        return check

    return register


def _thr(record: dict, key: str) -> float:
    return record["analytic"]["fig2_throughput_ips"][key]["reproduced"]


def _acc(record: dict, key: str) -> float:
    return record["trained"]["fig2"]["accuracy_pct"][key]["reproduced"]


def _subnets(record: dict, family: str) -> Dict[str, float]:
    return record["trained"]["fig2"]["subnet_accuracy"][family]


def _ablation(record: dict, run: str) -> Dict[str, float]:
    return record["trained"]["ablations"]["subnet_accuracy"][run]


def _accs(accs: Dict[str, float]) -> str:
    return " ".join(f"{name}={acc:.3f}" for name, acc in accs.items())


def _speedup(record: dict, versus: str, paper: float) -> Tuple[bool, str]:
    ratio = record["analytic"]["ht_speedup"][versus]["reproduced"]
    return abs(ratio - paper) / paper < 0.2, f"measured {ratio:.2f}x"


@_claim("static fails on any single-device failure",
        "Static's only-master and only-worker bars: 0 img/s")
def _static_fails(r):
    m, w = _thr(r, "static/only_master/failed"), _thr(r, "static/only_worker/failed")
    return m == 0 and w == 0, f"only_master={m}, only_worker={w}"


@_claim("dynamic survives worker death only",
        "Dynamic's only-master bar > 0 img/s, its only-worker bar 0 img/s")
def _dynamic_survives(r):
    m, w = _thr(r, "dynamic/only_master/solo"), _thr(r, "dynamic/only_worker/failed")
    return m > 0 and w == 0, f"only_master={m:.1f}, only_worker={w}"


@_claim("fluid survives either device death",
        "Fluid's only-master and only-worker bars > 0 img/s")
def _fluid_survives(r):
    m, w = _thr(r, "fluid/only_master/solo"), _thr(r, "fluid/only_worker/solo")
    return m > 0 and w > 0, f"only_master={m:.1f}, only_worker={w:.1f}"


@_claim("fluid HT ~2.5x static", "Fluid HT / Static HA throughput within 20 % of 2.5x")
def _vs_static(r):
    return _speedup(r, "vs_static", PAPER_HT_VS_STATIC)


@_claim("fluid HT ~2x dynamic", "Fluid HT / Dynamic HT throughput within 20 % of 2x")
def _vs_dynamic(r):
    return _speedup(r, "vs_dynamic", PAPER_HT_VS_DYNAMIC)


@_claim("HA throughput identical across families",
        "Static HA and Fluid HA throughput within 1e-6 img/s")
def _ha_identical(r):
    static = _thr(r, "static/master_and_worker/HA")
    fluid = _thr(r, "fluid/master_and_worker/HA")
    return abs(static - fluid) < 1e-6, f"static={static:.2f}, fluid={fluid:.2f}"


@_claim("all full-width models >= 95%", "Static HA and Fluid HA accuracy >= 95 %")
def _full_width(r):
    static = _acc(r, "static/master_and_worker/HA")
    fluid = _acc(r, "fluid/master_and_worker/HA")
    return static >= 95.0 and fluid >= 95.0, f"static={static:.1f}, fluid HA={fluid:.1f}"


@_claim("fluid HT accuracy below its HA accuracy (temporary loss)",
        "Fluid HT accuracy < Fluid HA accuracy")
def _temporary_loss(r):
    ht, ha = _acc(r, "fluid/master_and_worker/HT"), _acc(r, "fluid/master_and_worker/HA")
    return ht < ha, f"HT={ht:.1f} < HA={ha:.1f}"


@_claim("fluid HA within 1.0pt of static (paper: above it)",
        "Fluid HA accuracy >= Static HA accuracy - 1.0 point")
def _fluid_ha_vs_static(r):
    fluid = _acc(r, "fluid/master_and_worker/HA")
    static = _acc(r, "static/master_and_worker/HA")
    return fluid >= static - 1.0, f"fluid HA={fluid:.1f} vs static={static:.1f}"


@_claim("every Fig. 2 bar >= 93%",
        "each served bar's accuracy >= 93 %, each failed bar's exactly 0 %")
def _every_bar(r):
    bars = r["trained"]["fig2"]["accuracy_pct"]
    misses = [
        f"{key}={bar['reproduced']:.1f}"
        for key, bar in bars.items()
        if (bar["reproduced"] != 0.0 if key.endswith("/failed") else bar["reproduced"] < 93.0)
    ]
    return not misses, ", ".join(misses) or f"all {len(bars)} bars"


@_claim("dynamic upper50 at chance", "Dynamic's upper50 accuracy < 0.3 (Fig. 1c)")
def _dynamic_upper_chance(r):
    acc = _subnets(r, "dynamic")["upper50"]
    return acc < 0.3, f"upper50={acc:.3f}"


@_claim("static lower25 at chance", "Static's lower25 accuracy < 0.5")
def _static_lower_chance(r):
    acc = _subnets(r, "static")["lower25"]
    return acc < 0.5, f"lower25={acc:.3f}"


@_claim("Algorithm 1 keeps both halves and the combined model",
        "ablation fluid (niters=2): upper50 > 0.7, lower100 > 0.9")
def _algorithm1(r):
    fluid = _ablation(r, "fluid_niters2_four_subnets")
    return fluid["upper50"] > 0.7 and fluid["lower100"] > 0.9, _accs(fluid)


@_claim("dynamic-only training leaves upper50 at chance",
        "ablation dynamic-only: upper50 < 0.3, lower100 > 0.9")
def _dynamic_only(r):
    dynamic = _ablation(r, "dynamic_only")
    return dynamic["upper50"] < 0.3 and dynamic["lower100"] > 0.9, _accs(dynamic)


@_claim("a second fine-tuning iteration keeps the 100% model",
        "ablation lower100: niters=2 >= niters=1 - 0.02")
def _second_iteration(r):
    two = _ablation(r, "fluid_niters2_four_subnets")["lower100"]
    one = _ablation(r, "fluid_niters1")["lower100"]
    return two >= one - 0.02, f"niters=2 {two:.3f}, niters=1 {one:.3f}"


@_claim("one-shot schedule trains upper50", "ablation fluid (niters=1): upper50 > 0.5")
def _one_shot(r):
    acc = _ablation(r, "fluid_niters1")["upper50"]
    return acc > 0.5, f"upper50={acc:.3f}"


@_claim("every sub-network usable at niters=2",
        "ablation fluid (niters=2): every sub-network > 0.5")
def _all_usable(r):
    fluid = _ablation(r, "fluid_niters2_four_subnets")
    return all(acc > 0.5 for acc in fluid.values()), _accs(fluid)


@_claim("four- and two-member families are fluid",
        "both: lower50 > 0.7, upper50 > 0.7, lower100 > 0.8")
def _both_fluid(r):
    runs = {"four": _ablation(r, "fluid_niters2_four_subnets"),
            "two": _ablation(r, "fluid_two_subnets")}
    lost = [
        f"{name}: {_accs(accs)}" for name, accs in runs.items()
        if not (accs["lower50"] > 0.7 and accs["upper50"] > 0.7 and accs["lower100"] > 0.8)
    ]
    return not lost, "; ".join(lost) or "both fluid"


@_claim("four-member family exposes more operating points",
        "four-member family has more sub-networks than the two-member one")
def _more_points(r):
    four = len(_ablation(r, "fluid_niters2_four_subnets"))
    two = len(_ablation(r, "fluid_two_subnets"))
    return four > two, f"{four} vs {two} sub-networks"


def check_claims(record: dict) -> List[Verdict]:
    """Every claim's verdict on a record; a claim whose fact the record
    lacks fails."""
    verdicts = []
    for claim in CLAIMS:
        try:
            passed, detail = claim.check(record)
        except KeyError as missing:
            passed, detail = False, f"the record has no {missing}"
        verdicts.append(Verdict(claim, passed, detail))
    return verdicts


def reproduce() -> Tuple[dict, List[Verdict]]:
    """Compute the record's two halves on the one recipe and check every
    claim: ``({"analytic": ..., "trained": ...}, verdicts)``."""
    record = {"analytic": analytic_facts(), "trained": trained_facts()}
    return record, check_claims(record)


# -- the report ---------------------------------------------------------------


def format_fig2_table(record: dict) -> str:
    """The Fig. 2 bars, beside the paper's, as an aligned text table."""
    header = (
        f"{'family':8s} {'scenario':18s} {'mode':7s} "
        f"{'thr(img/s)':>10s} {'acc(%)':>7s} {'paper thr':>10s} {'paper acc':>10s}"
    )
    lines = [header, "-" * len(header)]
    accuracy = record["trained"]["fig2"]["accuracy_pct"]
    for key, bar in record["analytic"]["fig2_throughput_ips"].items():
        family, scenario, mode = key.split("/")
        acc = accuracy[key]
        lines.append(
            f"{family:8s} {scenario:18s} {mode:7s} {bar['reproduced']:10.1f} "
            f"{acc['reproduced']:7.1f} {bar['paper']:10.1f} {acc['paper']:10.1f}"
        )
    speedup = record["analytic"]["ht_speedup"]
    lines.append("")
    lines.append(
        f"Fluid HT speedup: {speedup['vs_static']['reproduced']:.2f}x vs Static "
        f"(paper {PAPER_HT_VS_STATIC}x), {speedup['vs_dynamic']['reproduced']:.2f}x "
        f"vs Dynamic (paper {PAPER_HT_VS_DYNAMIC}x)"
    )
    return "\n".join(lines)


def format_report(record: dict, verdicts: List[Verdict]) -> str:
    """The Fig. 2 table, the sub-network accuracy of every trained model
    (the Fig. 2 families and the training ablations), and the claim list."""
    fig2, ablations = record["trained"]["fig2"], record["trained"]["ablations"]
    rows = {**fig2["subnet_accuracy"], **ablations["subnet_accuracy"]}
    names = list(dict.fromkeys(name for accs in rows.values() for name in accs))
    lines = [
        f"Fig. 2 ({fig2['data']['num_train']} train / {fig2['data']['num_test']} "
        f"test images, seed {fig2['seed']})",
        format_fig2_table(record),
        "",
        f"Sub-network accuracy (the Fig. 2 families, then the training ablations on "
        f"{ablations['data']['num_train']} train / {ablations['data']['num_test']} test images)",
        f"{'model':28s}" + "".join(f" {name:>8s}" for name in names),
    ]
    for model, accs in rows.items():
        cells = (f"{accs[name]:8.3f}" if name in accs else f"{'-':>8s}" for name in names)
        lines.append(f"{model:28s} " + " ".join(cells))
    lines += ["", "Claims"]
    lines += [
        f"[{'PASS' if v.passed else 'FAIL'}] {v.claim.name}: {v.detail}" for v in verdicts
    ]
    return "\n".join(lines)
