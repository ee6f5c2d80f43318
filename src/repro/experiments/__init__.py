"""Experiment harnesses: Fig. 2 regeneration, calibration, reporting."""

from repro.experiments.calibration import (
    PAPER_FIG2,
    PAPER_HT_VS_DYNAMIC,
    PAPER_HT_VS_STATIC,
    OperatingPoint,
    calibration_points,
)
from repro.experiments.fig2 import Fig2Cell, Fig2Result, fig2_plans, plan_accuracy, run_fig2
from repro.experiments.report import (
    ShapeCheck,
    format_fig2_table,
    format_shape_checks,
    shape_checks,
)

__all__ = [
    "PAPER_FIG2",
    "PAPER_HT_VS_STATIC",
    "PAPER_HT_VS_DYNAMIC",
    "OperatingPoint",
    "calibration_points",
    "Fig2Cell",
    "Fig2Result",
    "run_fig2",
    "fig2_plans",
    "plan_accuracy",
    "ShapeCheck",
    "shape_checks",
    "format_fig2_table",
    "format_shape_checks",
]
