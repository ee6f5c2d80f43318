"""The ``repro-tuned-config`` artifact: a tuner run you can ship.

Shares the trace artifact's versioning discipline and header check
(:mod:`repro.trace.recorder`): a format tag plus an integer version in
the header; malformed JSON, foreign formats, invalid and newer versions
are rejected on read with a ``ValueError`` naming the file.  The
payload is the winner's full :meth:`SchedulerConfig.to_mapping` plus the
provenance needed to audit (or byte-reproduce) the run: trace name,
seed, fault plan, baseline-vs-tuned scores, stage sizes.

``dumps()`` is canonical (sorted keys, fixed indent), so two tuner runs
with the same ``(trace, space, seed)`` write byte-identical artifacts —
the determinism fact ``BENCH_tuning.json`` pins.

:func:`load_config_mapping` is the ``--config FILE`` loader: it accepts
either a full artifact (takes its ``config`` block) or a bare flat
mapping, so hand-written config files and tuner output go through the
same door.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.scheduler.frontend import SchedulerConfig
from repro.trace.recorder import check_header, parse_json
from repro.tuning.tuner import TuningResult

TUNED_CONFIG_FORMAT = "repro-tuned-config"
#: Version 2 dropped the ``derived`` block.  Its ``config`` block is a
#: :meth:`SchedulerConfig.to_mapping` stamped with its own
#: ``CONFIG_MAPPING_VERSION``, which ``from_mapping`` checks, so a config
#: schema change leaves this version alone.
TUNED_CONFIG_VERSION = 2


def artifact_payload(result: TuningResult) -> Dict[str, object]:
    """The artifact's JSON payload for one tuner run."""
    return {
        "format": TUNED_CONFIG_FORMAT,
        "version": TUNED_CONFIG_VERSION,
        "trace": result.trace_name,
        "seed": result.seed,
        "faults": result.faults,
        "config": result.config.to_mapping(),
        "baseline": result.baseline.to_json(),
        "winner": result.winner.to_json(),
        "tuned": result.tuned.to_json(),
        "leaderboard": [e.to_json() for e in result.leaderboard],
        "stages": result.stages,
        "validation": result.validation,
        "evaluations": result.evaluations,
    }


def dumps(result: TuningResult) -> str:
    """Canonical artifact text: a pure function of the tuner's result."""
    return json.dumps(artifact_payload(result), indent=2, sort_keys=True) + "\n"


def write_tuned_config(path: Union[str, Path], result: TuningResult) -> Path:
    path = Path(path)
    path.write_text(dumps(result))
    return path


def read_tuned_config(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate a full artifact; returns the parsed payload."""
    path = Path(path)
    data = parse_json(path.read_text(), path)
    check_header(data, path, TUNED_CONFIG_FORMAT, TUNED_CONFIG_VERSION)
    if not isinstance(data.get("config"), dict):
        raise ValueError(f"{path}: artifact has no config mapping")
    return data


def load_config_mapping(path: Union[str, Path]) -> Dict[str, object]:
    """A ``--config FILE`` as a flat mapping: artifact or bare mapping.

    A file with a ``format`` key must be a tuned-config artifact (its
    ``config`` block is returned); without one, the whole object is
    treated as a :meth:`SchedulerConfig.from_mapping` input.  Validation
    of the keys themselves happens in ``from_mapping`` — this only
    decides which envelope the file used.
    """
    path = Path(path)
    data = parse_json(path.read_text(), path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    if "format" in data:
        check_header(data, path, TUNED_CONFIG_FORMAT, TUNED_CONFIG_VERSION)
        config = data.get("config")
        if not isinstance(config, dict):
            raise ValueError(f"{path}: artifact has no config mapping")
        return config
    return data


def load_scheduler_config(path: Union[str, Path]) -> SchedulerConfig:
    """``--config FILE`` straight to a validated :class:`SchedulerConfig`."""
    return SchedulerConfig.from_mapping(load_config_mapping(path))
