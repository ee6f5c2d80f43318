"""The ``repro-tuned-config`` artifact: a tuner run you can ship.

Mirrors the trace artifact's versioning discipline
(:mod:`repro.trace.recorder`): a format tag plus an integer version in
the header, foreign formats and newer versions rejected on read.  The
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
from typing import Dict, Optional, Union

from repro.scheduler.frontend import SchedulerConfig
from repro.tuning.tuner import TuningResult

TUNED_CONFIG_FORMAT = "repro-tuned-config"
#: Version 2 dropped the ``derived`` block; its ``config`` is a version-2
#: :meth:`SchedulerConfig.to_mapping`.
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


def _check_header(data: Dict[str, object], source: str) -> None:
    if data.get("format") != TUNED_CONFIG_FORMAT:
        raise ValueError(
            f"{source}: not a {TUNED_CONFIG_FORMAT} artifact "
            f"(format={data.get('format')!r})"
        )
    version = data.get("version")
    if not isinstance(version, int) or version > TUNED_CONFIG_VERSION:
        raise ValueError(
            f"{source}: artifact version {version!r} is newer than this "
            f"build understands ({TUNED_CONFIG_VERSION})"
        )


def read_tuned_config(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate a full artifact; returns the parsed payload."""
    path = Path(path)
    data = json.loads(path.read_text())
    _check_header(data, str(path))
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
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    if "format" in data:
        _check_header(data, str(path))
        config = data.get("config")
        if not isinstance(config, dict):
            raise ValueError(f"{path}: artifact has no config mapping")
        return config
    return data


def load_scheduler_config(path: Union[str, Path]) -> SchedulerConfig:
    """``--config FILE`` straight to a validated :class:`SchedulerConfig`."""
    return SchedulerConfig.from_mapping(load_config_mapping(path))
