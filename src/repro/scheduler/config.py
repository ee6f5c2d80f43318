"""`SchedulerConfig`: every tunable of one serving frontend, as data.

Split out of ``frontend.py`` so the config (and its flat, versioned
mapping — the wire format of ``repro-tuned-config`` artifacts and
``serve/replay --config``) can be read, built and round-tripped without
touching threads, queues or futures.

A field exists only if a caller outside the tests sets it (a CLI flag, a
benchmark, the fault plane) or the tuner ranks it in the simulator; the
one exception, ``hedge_ratio``, is the hedge budget the tuner will search
once the simulator models hedges.  What no caller varies is a constant
where it is used: the hedge instant's factor and floor
(``frontend.HEDGE_FACTOR`` / ``HEDGE_MIN_S``), plan compilation and its
workspaces, and the supervisor's backoff and restart budget
(``ReplicaSupervisor``'s defaults).  Each width compiles one plan of
``max_batch`` rows whose work follows the flush's live rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.faults.policy import BrownoutPolicy, RetryPolicy
from repro.scheduler.admission import SLA

#: Version of the flat :meth:`SchedulerConfig.to_mapping` wire format.
#: Bump when a knob is renamed or its meaning changes; ``from_mapping``
#: refuses mappings stamped with a *newer* version than it understands.
#: Version 2 dropped nine knobs no caller set, version 3 the batch-rows
#: ladder, version 4 the conv-lowering choice; a full dump of an older
#: version names them and fails as unknown keys.
CONFIG_MAPPING_VERSION = 4


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of one serving frontend."""

    replicas: int = 2
    default_sla: SLA = field(default_factory=lambda: SLA(deadline_s=0.05))
    admission_headroom: float = 1.0
    enable_admission: bool = True
    enable_hedging: bool = True
    hedge_ratio: float = 0.1    # hedges may add at most this fraction of load
    warmup: bool = True         # fit the service model to one 1-row run per width
    max_batch: int = 16
    max_delay_s: float = 0.001  # longest a request with company waits for batch-mates
    replica_backend: str = "thread"  # "thread" shares one interpreter;
    # "process" forks GIL-free workers over shared-memory weights
    # (see repro.scheduler.procpool).
    supervise: bool = False     # respawn ejected replicas (see faults.supervisor)
    retry_policy: Optional[RetryPolicy] = None  # None keeps the legacy
    # unlimited immediate reroute; a policy bounds it with backoff.
    brownout: Optional[BrownoutPolicy] = None  # None disables brown-out;
    # a policy sheds low-priority admissions and clamps width under
    # overload (see faults.policy.BrownoutController).

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.replica_backend not in ("thread", "process"):
            raise ValueError(f"unknown replica backend {self.replica_backend!r}")
        if not 0.0 <= self.hedge_ratio <= 1.0:
            raise ValueError("hedge_ratio must be in [0, 1]")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")

    # -- serialization ---------------------------------------------------------
    #
    # The flat mapping below is the *public config wire format*: the offline
    # tuner (repro.tuning) emits it inside ``repro-tuned-config`` artifacts,
    # ``serve/replay --config FILE`` consume it, and the CLI's flag overrides
    # are merged through it.  Nested objects flatten to dotted keys
    # ("sla.deadline_s"); the optional RetryPolicy / BrownoutPolicy flatten to
    # a boolean presence key ("retry", "brownout") plus dotted knobs.

    def to_mapping(self) -> Dict[str, object]:
        """Every knob as a flat, stable-sorted, JSON-serializable mapping.

        ``from_mapping(to_mapping(cfg)) == cfg`` for any valid config, and
        ``json.dumps(..., sort_keys=True)`` of the result is byte-stable —
        the property the tuner's artifact determinism rests on.
        """
        nested = _NESTED_KNOBS
        attrs = {attr for attr, _ in nested.values()}
        mapping: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in attrs
        }
        mapping["version"] = CONFIG_MAPPING_VERSION
        for prefix, (attr, _) in nested.items():
            value = getattr(self, attr)
            if prefix != "sla":
                mapping[prefix] = value is not None
            if value is not None:
                mapping.update({f"{prefix}.{k}": v for k, v in asdict(value).items()})
        return dict(sorted(mapping.items()))

    @classmethod
    def from_mapping(cls, mapping) -> "SchedulerConfig":
        """Rebuild a config from :meth:`to_mapping` output (or a subset).

        Missing keys keep their dataclass defaults, so a partial mapping is
        a valid *override set* — the CLI builds configs by layering flag
        overrides onto ``--config FILE`` through this.  Unknown keys and
        newer ``version`` values are rejected, never ignored: a typo'd knob
        that silently kept its default would be worse than a crash.
        """
        data = dict(mapping)
        version = data.pop("version", CONFIG_MAPPING_VERSION)
        if not isinstance(version, int) or isinstance(version, bool):
            raise ValueError(f"config mapping version must be an int, got {version!r}")
        if version > CONFIG_MAPPING_VERSION:
            raise ValueError(
                f"config mapping version {version} is newer than this "
                f"build understands ({CONFIG_MAPPING_VERSION})"
            )
        nested = _NESTED_KNOBS
        flat = {f.name for f in fields(cls)} - {attr for attr, _ in nested.values()}
        nested_knobs = {
            prefix: {f.name for f in fields(policy_cls)}
            for prefix, (_, policy_cls) in nested.items()
        }
        flags = {prefix: data.pop(prefix, None) for prefix in ("retry", "brownout")}
        kwargs: Dict[str, object] = {}
        knobs: Dict[str, Dict[str, object]] = {prefix: {} for prefix in nested}
        unknown = []
        for key, value in data.items():
            prefix, _, knob = key.partition(".")
            if key in flat:
                kwargs[key] = value
            elif knob in nested_knobs.get(prefix, ()):
                knobs[prefix][knob] = value
            else:
                unknown.append(key)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if knobs["sla"]:
            # deadline_s is SLA's only required field; a partial override
            # set (e.g. just "sla.priority") keeps the dataclass default.
            knobs["sla"].setdefault("deadline_s", 0.05)
            kwargs["default_sla"] = SLA(**knobs["sla"])
        for prefix, flag in flags.items():
            attr, policy_cls = nested[prefix]
            if flag is False and knobs[prefix]:
                raise ValueError(
                    f"{prefix} is disabled but {prefix} knobs given: "
                    f"{sorted(knobs[prefix])}"
                )
            if flag or (flag is None and knobs[prefix]):
                kwargs[attr] = policy_cls(**knobs[prefix])
        return cls(**kwargs)


#: Mapping-key prefix → (config attribute, dataclass) of each nested object.
#: Their knobs flatten to ``"<prefix>.<field>"`` keys straight from the
#: dataclass fields.
_NESTED_KNOBS: Dict[str, Tuple[str, type]] = {
    "sla": ("default_sla", SLA),
    "retry": ("retry_policy", RetryPolicy),
    "brownout": ("brownout", BrownoutPolicy),
}
