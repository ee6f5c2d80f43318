"""Calibration of the emulated testbed against the paper's Fig. 2.

The paper reports four independent throughput operating points:

=====================================  ==========
Lone 50% model on the Master            14.4 img/s
Lone upper-50% model on the Worker      13.9 img/s
Fluid HT (both streams in parallel)     28.3 img/s
Distributed 100% model (HA / Static)    11.1 img/s
=====================================  ==========

Given the model's exact FLOP counts (402,976 for the 50% models; 685,216
per device for the partitioned 100% model) these four numbers over-determine
a two-parameter-per-device latency model plus an alpha-beta link model; the
constants in :mod:`repro.device.profiles` and
:mod:`repro.comm.latency_model` solve them:

* master: ``t = flops / 2.0e7 + layers * 12.3238 ms``
* worker: ``t = flops / 2.43e7 + layers * 13.8398 ms``
* link:   ``t = 1.4448 ms + bytes / 12.5 MB/s`` per exchange
  (four exchanges per HA image: three pooled conv activations of
  6272/1568/1568 bytes plus 40 bytes of partial logits).

This module exposes the paper's reference numbers and a self-check that the
calibrated emulation reproduces them, which doubles as a regression test —
if a cost-model refactor drifts the operating points, the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.modes import MASTER, WORKER
from repro.engine.plan import solo_plan
from repro.slimmable.slim_net import SlimmableConvNet

# (family, scenario, mode) -> (throughput image/s, accuracy %)
# Transcribed from Fig. 2 of the paper.
PAPER_FIG2: Dict[Tuple[str, str, str], Tuple[float, float]] = {
    ("static", "master_and_worker", "HA"): (11.1, 98.9),
    ("static", "only_master", "failed"): (0.0, 0.0),
    ("static", "only_worker", "failed"): (0.0, 0.0),
    ("dynamic", "master_and_worker", "HT"): (14.4, 98.8),
    ("dynamic", "master_and_worker", "HA"): (11.1, 98.9),
    ("dynamic", "only_master", "solo"): (14.4, 98.8),
    ("dynamic", "only_worker", "failed"): (0.0, 0.0),
    ("fluid", "master_and_worker", "HT"): (28.3, 97.6),
    ("fluid", "master_and_worker", "HA"): (11.1, 99.2),
    ("fluid", "only_master", "solo"): (14.4, 98.8),
    ("fluid", "only_worker", "solo"): (13.9, 98.9),
}

# Headline ratios claimed in the abstract / §III.
PAPER_HT_VS_STATIC = 2.5
PAPER_HT_VS_DYNAMIC = 2.0


@dataclass(frozen=True)
class OperatingPoint:
    """One calibration target: predicted vs paper-reported throughput."""

    name: str
    paper_ips: float
    predicted_ips: float

    @property
    def relative_error(self) -> float:
        return abs(self.predicted_ips - self.paper_ips) / self.paper_ips


def calibration_points(net: SlimmableConvNet) -> Dict[str, OperatingPoint]:
    """Predicted vs paper throughput for the four calibration targets."""
    tm = SystemThroughputModel(
        net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )
    ws = net.width_spec
    half = ws.split
    lower50 = ws.lower(half)
    upper50 = ws.upper(ws.max_width - half)
    full = ws.full()

    solo_master = tm.evaluate_plan(solo_plan(MASTER, lower50.name)).throughput_ips
    solo_worker = tm.evaluate_plan(solo_plan(WORKER, upper50.name)).throughput_ips
    ht = tm.ht_throughput(lower50, upper50).throughput_ips
    ha = tm.ha_throughput(full).throughput_ips
    points = {
        "solo_master_50": OperatingPoint("solo_master_50", 14.4, solo_master),
        "solo_worker_upper50": OperatingPoint("solo_worker_upper50", 13.9, solo_worker),
        "fluid_ht": OperatingPoint("fluid_ht", 28.3, ht),
        "distributed_ha": OperatingPoint("distributed_ha", 11.1, ha),
    }
    return points
