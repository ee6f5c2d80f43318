"""Shared by the measurement scripts: the model they serve, where output goes.

The rule this tree follows (README, "Tests and measurements"): a number is
committed at the repo root only if a tier-1 test re-derives it exactly
(``BENCH_chaos.json``, ``BENCH_trace_replay.json``, ``BENCH_tuning.json``,
and the analytic half of ``REPRO.json``); every wall-clock number belongs
to ``benchmarks/e2e``.  What the scripts here measure on the wall clock is
therefore printed, and written — env-stamped — only under the git-ignored
``benchmarks/out/``.
"""

from __future__ import annotations

import json
from pathlib import Path

from e2e.env import describe  # the one environment record: imported, not copied

from repro.models.zoo import build_model
from repro.utils.rng import make_rng

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "out"


def fluid_model():
    """The untrained paper-architecture Fluid model every serving bench drives."""
    return build_model("fluid", rng=make_rng(0))


def env_record() -> dict:
    return describe(ROOT)


def write_out(name: str, report: dict) -> Path:
    """Write ``report`` beside its environment to ``benchmarks/out/<name>.json``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps({"env": env_record(), **report}, indent=2) + "\n")
    return path
