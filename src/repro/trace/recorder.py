"""Versioned trace artifacts: request specs, records, and the recorder.

One JSONL format serves both trace *kinds*:

* ``generated`` — a request stream to inject (scenario-zoo output): each
  line is a :class:`RequestSpec` (arrival offset, SLA, payload shape and
  seed, tenant).
* ``recorded`` — what a live :class:`~repro.scheduler.frontend.ServingFrontend`
  actually did: each line is a :class:`RequestRecord` — a spec *plus* the
  outcome, served width, measured latency and the full span timeline.

A recorded artifact is therefore replayable: the replayer only reads the
spec fields.  The first line is a header carrying :data:`TRACE_FORMAT`,
:data:`TRACE_VERSION` and free-form ``meta`` (e.g. the generating
:class:`~repro.trace.scenarios.TraceSpec`); readers reject unknown
formats/versions instead of misparsing them.

Determinism contract: serialisation is canonical (sorted keys, newline
per record, records ordered by request id), so two recordings of the
same replay differ only in *wall-clock* fields.  :func:`canonical_record`
strips those (:data:`WALL_CLOCK_FIELDS`), giving the byte-comparable
form the replay benchmark uses to assert "identical outcomes modulo
wall-clock".
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: Header-meta key under which a serialised fault plan rides in an
#: artifact, so ``replay --faults`` can re-run a recorded incident.
FAULTS_META_KEY = "faults"

#: Outcome labels for one traced request.
OK = "ok"               # completed within its deadline
LATE = "late"           # completed, but after the deadline
REJECTED = "rejected"   # failed fast (admission / already-expired deadline)
LOST = "lost"           # errored / never produced a result

OUTCOMES = (OK, LATE, REJECTED, LOST)

#: Record/event fields that are wall-clock measurements — everything that
#: legitimately differs between two replays of the same corpus.  Stripped
#: by :func:`canonical_record` before byte-level determinism comparisons.
WALL_CLOCK_FIELDS = frozenset(
    {
        "latency_s",
        "t_s",
        "service_s",
        "predicted_s",
        "estimated_s",
        "budget_s",
        "queue_wait_s",
        "wall_s",
        "compute_s",
    }
)


@dataclass(frozen=True)
class RequestSpec:
    """The replayable description of one request."""

    request_id: int
    arrival_s: float                 # offset from trace start
    deadline_s: float
    priority: int = 0
    min_width: Optional[str] = None
    max_width: Optional[str] = None
    payload_seed: Optional[int] = None
    shape: Optional[Tuple[int, ...]] = None  # None: the model's default image
    tenant: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "deadline_s": self.deadline_s,
            "priority": self.priority,
        }
        if self.min_width is not None:
            out["min_width"] = self.min_width
        if self.max_width is not None:
            out["max_width"] = self.max_width
        if self.payload_seed is not None:
            out["payload_seed"] = self.payload_seed
        if self.shape is not None:
            out["shape"] = list(self.shape)
        if self.tenant is not None:
            out["tenant"] = self.tenant
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "RequestSpec":
        shape = data.get("shape")
        return cls(
            request_id=int(data["request_id"]),
            arrival_s=float(data["arrival_s"]),
            deadline_s=float(data["deadline_s"]),
            priority=int(data.get("priority", 0)),
            min_width=data.get("min_width"),
            max_width=data.get("max_width"),
            payload_seed=(
                int(data["payload_seed"]) if data.get("payload_seed") is not None else None
            ),
            shape=tuple(int(s) for s in shape) if shape is not None else None,
            tenant=data.get("tenant"),
        )


@dataclass(frozen=True)
class RequestRecord:
    """One completed request: its spec plus what the plane did with it."""

    spec: RequestSpec
    outcome: str
    width: Optional[str] = None
    latency_s: Optional[float] = None
    events: Tuple[Dict[str, object], ...] = ()  # TraceEvent.to_json() dicts

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r} (expected one of {OUTCOMES})")

    def to_json(self) -> Dict[str, object]:
        out = self.spec.to_json()
        out["outcome"] = self.outcome
        if self.width is not None:
            out["width"] = self.width
        if self.latency_s is not None:
            out["latency_s"] = self.latency_s
        if self.events:
            out["events"] = list(self.events)
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "RequestRecord":
        return cls(
            spec=RequestSpec.from_json(data),
            outcome=str(data["outcome"]),
            width=data.get("width"),
            latency_s=(
                float(data["latency_s"]) if data.get("latency_s") is not None else None
            ),
            events=tuple(data.get("events", ())),
        )


def canonical_record(record: Union[RequestRecord, Mapping[str, object]]) -> Dict[str, object]:
    """A record's JSON form with every wall-clock field stripped.

    Two replays of the same corpus under the same seeds must produce
    *identical* canonical records — that is the determinism fact
    ``BENCH_trace_replay.json`` pins.
    """
    data = record.to_json() if isinstance(record, RequestRecord) else dict(record)

    def strip(value):
        if isinstance(value, Mapping):
            return {k: strip(v) for k, v in sorted(value.items()) if k not in WALL_CLOCK_FIELDS}
        if isinstance(value, (list, tuple)):
            return [strip(v) for v in value]
        return value

    return strip(data)


def canonical_dumps(records: Sequence[Union[RequestRecord, Mapping[str, object]]]) -> str:
    """Canonical (wall-clock-free) byte form of a record sequence."""
    return "\n".join(
        json.dumps(canonical_record(r), sort_keys=True) for r in records
    )


class TraceRecorder:
    """Collects completed :class:`RequestRecord`\\ s; writes the artifact.

    Thread-safe: the frontend records from completion callbacks on
    collector/watchdog threads.  :meth:`write` orders records by request
    id and serialises with sorted keys, so the artifact's byte form is a
    pure function of its contents.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        kind: str = "recorded",
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.kind = kind
        self.meta = dict(meta or {})
        self._records: List[RequestRecord] = []
        self._lock = threading.Lock()

    def record(self, record: RequestRecord) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> List[RequestRecord]:
        with self._lock:
            return sorted(self._records, key=lambda r: r.spec.request_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def header(self) -> Dict[str, object]:
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "kind": self.kind,
            "meta": self.meta,
        }

    def dumps(self) -> str:
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(json.dumps(r.to_json(), sort_keys=True) for r in self.records)
        return "\n".join(lines) + "\n"

    def write(self, path: Optional[Union[str, Path]] = None) -> Path:
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given to TraceRecorder.write")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.dumps())
        return target


def write_trace(
    path: Union[str, Path],
    specs: Sequence[RequestSpec],
    *,
    meta: Optional[Mapping[str, object]] = None,
) -> Path:
    """Serialise a request stream (no outcomes) as a ``generated`` artifact."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "kind": "generated",
        "meta": dict(meta or {}),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(s.to_json(), sort_keys=True)
        for s in sorted(specs, key=lambda s: s.request_id)
    )
    target.write_text("\n".join(lines) + "\n")
    return target


def parse_json(text: str, source: object) -> object:
    """``json.loads`` whose error is a ``ValueError`` naming ``source``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not valid JSON ({exc})") from None


def check_header(header: object, source: object, fmt: str, supported: int) -> None:
    """Refuse anything but a ``fmt`` header object at a version this build reads.

    The version must be an ``int`` (not a bool): a malformed one is
    "invalid", and only a well-formed one above ``supported`` is "newer".
    """
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError(f"{source}: not a {fmt} artifact (header {header!r})")
    version = header.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ValueError(f"{source}: invalid artifact version {version!r}")
    if version > supported:
        raise ValueError(
            f"{source}: artifact version {version} is newer than this build "
            f"understands ({supported})"
        )


def read_trace(path: Union[str, Path]) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Parse a trace artifact; returns ``(header, record_dicts)``.

    Rejects unknown formats, malformed and future versions, and lines that
    are not JSON, each with a ``ValueError`` naming the file — a reader
    must never silently misinterpret an artifact written by a newer layout.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trace artifact")
    header = parse_json(lines[0], path)
    check_header(header, path, TRACE_FORMAT, TRACE_VERSION)
    return header, [parse_json(line, path) for line in lines[1:] if line.strip()]


def read_specs(path: Union[str, Path]) -> Tuple[Dict[str, object], List[RequestSpec]]:
    """Read any trace artifact down to its replayable request specs."""
    header, rows = read_trace(path)
    return header, [RequestSpec.from_json(row) for row in rows]
