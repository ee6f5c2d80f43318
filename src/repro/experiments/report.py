"""Report formatting: Fig. 2 tables, paper comparison, shape checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.calibration import (
    PAPER_FIG2,
    PAPER_HT_VS_DYNAMIC,
    PAPER_HT_VS_STATIC,
)
from repro.experiments.fig2 import Fig2Result


def format_fig2_table(result: Fig2Result) -> str:
    """Render the Fig. 2 bars, beside the paper's, as an aligned text table."""
    header = (
        f"{'family':8s} {'scenario':18s} {'mode':7s} "
        f"{'thr(img/s)':>10s} {'acc(%)':>7s}"
        f" {'paper thr':>10s} {'paper acc':>10s}"
    )
    lines = [header, "-" * len(header)]
    for cell in result.cells:
        line = (
            f"{cell.family:8s} {cell.scenario:18s} {cell.mode:7s} "
            f"{cell.throughput_ips:10.1f} {cell.accuracy_pct:7.1f}"
        )
        ref = PAPER_FIG2.get((cell.family, cell.scenario, cell.mode))
        if ref:
            line += f" {ref[0]:10.1f} {ref[1]:10.1f}"
        else:
            line += f" {'-':>10s} {'-':>10s}"
        lines.append(line)
    lines.append("")
    lines.append(
        f"Fluid HT speedup: {result.ht_speedup_vs_static():.2f}x vs Static "
        f"(paper {PAPER_HT_VS_STATIC}x), "
        f"{result.ht_speedup_vs_dynamic():.2f}x vs Dynamic "
        f"(paper {PAPER_HT_VS_DYNAMIC}x)"
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative claim from the paper, verified against our numbers."""

    name: str
    passed: bool
    detail: str


def shape_checks(result: Fig2Result) -> List[ShapeCheck]:
    """Verify the paper's qualitative claims on a result.

    These are the repro contract: who wins, by roughly what factor, and
    which configurations fail outright.
    """
    checks: List[ShapeCheck] = []

    def cell(family: str, scenario: str, mode: str):
        return result.get(family, scenario, mode)

    # 1. Reliability pattern under single-device failure.
    static_m = cell("static", "only_master", "failed")
    static_w = cell("static", "only_worker", "failed")
    checks.append(
        ShapeCheck(
            "static fails on any single-device failure",
            static_m.throughput_ips == 0 and static_w.throughput_ips == 0,
            f"only_master={static_m.throughput_ips}, only_worker={static_w.throughput_ips}",
        )
    )
    dyn_m = cell("dynamic", "only_master", "solo")
    dyn_w = cell("dynamic", "only_worker", "failed")
    checks.append(
        ShapeCheck(
            "dynamic survives worker death only",
            dyn_m.throughput_ips > 0 and dyn_w.throughput_ips == 0,
            f"only_master={dyn_m.throughput_ips:.1f}, only_worker={dyn_w.throughput_ips}",
        )
    )
    fluid_m = cell("fluid", "only_master", "solo")
    fluid_w = cell("fluid", "only_worker", "solo")
    checks.append(
        ShapeCheck(
            "fluid survives either device death",
            fluid_m.throughput_ips > 0 and fluid_w.throughput_ips > 0,
            f"only_master={fluid_m.throughput_ips:.1f}, only_worker={fluid_w.throughput_ips:.1f}",
        )
    )

    # 2. Throughput ratios with both devices online.
    vs_static = result.ht_speedup_vs_static()
    checks.append(
        ShapeCheck(
            "fluid HT ~2.5x static (within 20%)",
            abs(vs_static - PAPER_HT_VS_STATIC) / PAPER_HT_VS_STATIC < 0.2,
            f"measured {vs_static:.2f}x",
        )
    )
    vs_dynamic = result.ht_speedup_vs_dynamic()
    checks.append(
        ShapeCheck(
            "fluid HT ~2x dynamic (within 20%)",
            abs(vs_dynamic - PAPER_HT_VS_DYNAMIC) / PAPER_HT_VS_DYNAMIC < 0.2,
            f"measured {vs_dynamic:.2f}x",
        )
    )

    # 3. HA deployments share the same partition => same throughput.
    ha_static = cell("static", "master_and_worker", "HA").throughput_ips
    ha_fluid = cell("fluid", "master_and_worker", "HA").throughput_ips
    checks.append(
        ShapeCheck(
            "HA throughput identical across families",
            abs(ha_static - ha_fluid) < 1e-6,
            f"static={ha_static:.2f}, fluid={ha_fluid:.2f}",
        )
    )

    # 4. Accuracy ordering.
    acc_full_static = cell("static", "master_and_worker", "HA").accuracy_pct
    acc_fluid_ha = cell("fluid", "master_and_worker", "HA").accuracy_pct
    acc_fluid_ht = cell("fluid", "master_and_worker", "HT").accuracy_pct
    checks.append(
        ShapeCheck(
            "all full-width models >= 95%",
            acc_full_static >= 95.0 and acc_fluid_ha >= 95.0,
            f"static={acc_full_static:.1f}, fluid HA={acc_fluid_ha:.1f}",
        )
    )
    checks.append(
        ShapeCheck(
            "fluid HT accuracy below its HA accuracy (temporary loss)",
            acc_fluid_ht < acc_fluid_ha,
            f"HT={acc_fluid_ht:.1f} < HA={acc_fluid_ha:.1f}",
        )
    )
    checks.append(
        ShapeCheck(
            "fluid HA within 1.0pt of static (paper: above it)",
            acc_fluid_ha >= acc_full_static - 1.0,
            f"fluid HA={acc_fluid_ha:.1f} vs static={acc_full_static:.1f}",
        )
    )
    return checks


def format_shape_checks(checks: List[ShapeCheck]) -> str:
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"[{status}] {check.name}: {check.detail}")
    return "\n".join(lines)
