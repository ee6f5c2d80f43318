"""Trace-driven offline autotuning (ROADMAP item 3, closed).

``tune()`` searches :class:`SchedulerConfig` space against the
virtual-time simulator on any replayable trace — optionally under a
fault plan — and the ``repro-tuned-config`` artifact ships the winner
to ``replay --config``.  See :mod:`repro.tuning.tuner` for the search,
:mod:`repro.tuning.space` for what is searched vs derived, and
:mod:`repro.tuning.artifact` for the wire format.
"""

from repro.tuning.artifact import (
    TUNED_CONFIG_FORMAT,
    TUNED_CONFIG_VERSION,
    artifact_payload,
    dumps,
    load_config_mapping,
    load_scheduler_config,
    read_tuned_config,
    write_tuned_config,
)
from repro.tuning.space import (
    SHIFTED_GEMM_MIN_ROWS,
    SearchSpace,
    backends_for_rungs,
    rungs_from_histogram,
)
from repro.tuning.tuner import Evaluation, TuningResult, default_workers, tune

__all__ = [
    "Evaluation",
    "SHIFTED_GEMM_MIN_ROWS",
    "SearchSpace",
    "TUNED_CONFIG_FORMAT",
    "TUNED_CONFIG_VERSION",
    "TuningResult",
    "artifact_payload",
    "backends_for_rungs",
    "default_workers",
    "dumps",
    "load_config_mapping",
    "load_scheduler_config",
    "read_tuned_config",
    "rungs_from_histogram",
    "tune",
    "write_tuned_config",
]
