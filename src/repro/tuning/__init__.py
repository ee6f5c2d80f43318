"""Trace-driven offline autotuning.

``tune()`` searches :class:`SchedulerConfig` space against the
virtual-time simulator on any replayable trace — optionally under a
fault plan — and the ``repro-tuned-config`` artifact ships the winner
to ``replay --config``.  See :mod:`repro.tuning.tuner` for the search,
:mod:`repro.tuning.space` for what is searched (and why nothing else is),
and :mod:`repro.tuning.artifact` for the wire format.
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
from repro.tuning.space import SearchSpace
from repro.tuning.tuner import Evaluation, TuningResult, default_workers, tune

__all__ = [
    "Evaluation",
    "SearchSpace",
    "TUNED_CONFIG_FORMAT",
    "TUNED_CONFIG_VERSION",
    "TuningResult",
    "artifact_payload",
    "default_workers",
    "dumps",
    "load_config_mapping",
    "load_scheduler_config",
    "read_tuned_config",
    "tune",
    "write_tuned_config",
]
