"""A small immutable configuration record with validation helpers.

Experiments and trainers accept plain keyword arguments, but the experiment
harness (:mod:`repro.experiments`) passes structured configs around and needs
round-tripping to/from plain dicts (for JSON reports).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping


@dataclass(frozen=True)
class Config:
    """Immutable string-keyed configuration mapping.

    Supports attribute-style reads for convenience::

        cfg = Config({"epochs": 3, "lr": 0.1})
        cfg.epochs  # 3
        cfg["lr"]   # 0.1

    Well-known key groups consumed elsewhere:

    * ``inference_dtype`` / ``training_dtype`` / ``wire_dtype`` — see
      :meth:`dtype_policy`;
    * ``heartbeat_threshold`` / ``heartbeat_interval_s`` — failure
      detection cadence, read by
      :meth:`repro.runtime.monitor.HeartbeatMonitor.from_config` (used by
      both the live master/worker path and the scheduler's replica pool).
    """

    values: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in self.values:
            if not isinstance(key, str):
                raise TypeError(f"Config keys must be strings, got {key!r}")

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def __getattr__(self, key: str) -> Any:
        # Only called when normal attribute lookup fails.
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    def require(self, *keys: str) -> "Config":
        """Raise ``KeyError`` listing any missing required keys."""
        missing = [k for k in keys if k not in self.values]
        if missing:
            raise KeyError(f"Config missing required keys: {missing}")
        return self

    def dtype_policy(self) -> "DtypePolicy":
        """The dtype policy this config selects (defaults when keys absent).

        Recognised keys: ``inference_dtype``, ``training_dtype``,
        ``wire_dtype`` — each a dtype name like ``"float32"``.
        """
        from repro.utils.dtypes import DtypePolicy

        return DtypePolicy.from_config(self)

    def to_json(self) -> str:
        return json.dumps(self.values, sort_keys=True)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "Config":
        return cls(dict(mapping))

    @classmethod
    def from_json(cls, text: str) -> "Config":
        return cls(json.loads(text))
