"""The per-request decision path — one copy, for every clock.

Which sub-network serves a request, and how its ending is named, is
decided here and nowhere else:

* :func:`decide` — brown-out gate → admission → deadline budget → width
  choice, over a :class:`PlaneView` of whoever is asking;
* :func:`classify_outcome` — a finished request is ok / late / rejected
  / lost;
* :func:`summarize_outcomes` — goodput, miss rate and latency tails of a
  run.

Every time estimate in :func:`decide` — the width's service, admission's
service floor and the plane's queue wait — is one
:class:`~repro.scheduler.width_policy.ServiceModel`'s ``seconds(width,
rows)``.  :class:`~repro.scheduler.frontend.ServingFrontend` binds the view
to live state (the model fitted from its served batches, each queue's open
rows, the wall clock); :meth:`~repro.trace.replay.TraceReplayer.simulate`
binds it to virtual time (the model fixed at the coefficients of the
analytical service table, the sim's own backlog).  Neither carries decision
logic of its own, so a change to the rule shows up in live serving, in the
pinned simulation records and in the tuner's fitness function at once.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence

from repro.faults.policy import BrownoutController, BrownoutShed
from repro.runtime.batching import DeadlineExceeded
from repro.scheduler.admission import (
    SLA,
    AdmissionController,
    AdmissionDecision,
    AdmissionRejected,
)
from repro.scheduler.telemetry import nearest_rank
from repro.scheduler.width_policy import WidthPolicy
from repro.slimmable.spec import SubNetSpec
from repro.trace.recorder import LATE, LOST, OK, OUTCOMES, REJECTED


class PlaneView(NamedTuple):
    """What :func:`decide` may know about the plane it decides for.

    The three signals are callables so a caller pays for one only when
    the decision reads it: ``depth`` and ``miss_rate`` feed the brown-out
    controller alone; ``queue_wait`` is the work ahead on the replica the
    request would be routed to, in ``policy.model`` seconds.
    """

    policy: WidthPolicy
    admission: Optional[AdmissionController]      # None: admission disabled
    brownout: Optional["BrownoutController"]
    depth: Callable[[], int]                      # requests queued or executing
    miss_rate: Callable[[], Optional[float]]      # deadline-miss signal, if any
    queue_wait: Callable[[], float]               # seconds of work ahead of a new request


class Decision(NamedTuple):
    """Shed, rejected or admitted — ``error`` is set unless admitted."""

    error: Optional[AdmissionRejected] = None     # BrownoutShed when shed
    queue_wait_s: float = 0.0
    admission: Optional[AdmissionDecision] = None  # None: shed, or admission disabled
    width: Optional[SubNetSpec] = None
    predicted_s: float = 0.0
    budget_s: float = 0.0
    clamped: bool = False                         # width forced narrow by brown-out

    @property
    def shed(self) -> bool:
        return isinstance(self.error, BrownoutShed)


def decide(sla: SLA, remaining_s: float, rows: int, plane: PlaneView) -> Decision:
    """Admit a ``rows``-row request for ``sla`` with ``remaining_s`` of its
    deadline left, or say why not."""
    brownout, policy = plane.brownout, plane.policy
    engaged = False
    if brownout is not None:
        # Pressure signals: requests pending across the whole pool plus the
        # deadline-miss EWMA (fed only by served outcomes and losses, never
        # by sheds — shedding must not keep brown-out engaged).
        engaged = brownout.update(plane.depth(), plane.miss_rate())
        if engaged and brownout.should_shed(sla.priority):
            return Decision(
                BrownoutShed("brown-out: low-priority admission shed")
            )
    narrowest = policy.narrowest(sla.min_width, sla.max_width)
    floor = policy.model.seconds(narrowest.name, rows)
    queue_wait = plane.queue_wait()
    admission = None
    if plane.admission is not None:
        admission = plane.admission.decide_remaining(
            sla,
            remaining_s=remaining_s,
            queue_wait_s=queue_wait,
            service_floor_s=floor,
        )
        if not admission.admitted:
            return Decision(AdmissionRejected(admission.reason), queue_wait, admission)
    budget = max(remaining_s - queue_wait, 0.0)
    if engaged and brownout.policy.clamp_width:
        # Overload valve: serve the narrowest slice each SLA allows —
        # quality traded for throughput until pressure subsides.
        return Decision(None, queue_wait, admission, narrowest, floor, budget, True)
    width, predicted = policy.choose(
        budget, rows=rows, min_width=sla.min_width, max_width=sla.max_width
    )
    return Decision(None, queue_wait, admission, width, predicted, budget)


def classify_outcome(
    deadline_s: float,
    latency_s: Optional[float] = None,
    error: Optional[BaseException] = None,
) -> str:
    """Name a finished request: ok / late when answered, else rejected / lost.

    Admission rejections, brown-out sheds and the queue's fail-fast all
    subclass :class:`DeadlineExceeded` — no compute was spent, a miss;
    any other error means the plane dropped admitted work.
    """
    if error is not None:
        return REJECTED if isinstance(error, DeadlineExceeded) else LOST
    return OK if latency_s <= deadline_s else LATE


def summarize_outcomes(
    records: Sequence[Mapping[str, object]], duration_s: float
) -> Dict[str, object]:
    """Goodput / miss-rate / tail-latency stats of one driven trace."""
    total = len(records)
    by_outcome = {k: 0 for k in OUTCOMES}
    widths: Dict[str, int] = {}
    for r in records:
        by_outcome[r["outcome"]] += 1
        if r.get("width"):
            widths[r["width"]] = widths.get(r["width"], 0) + 1
    latencies = sorted(
        r["latency_s"] for r in records if r.get("latency_s") is not None
    )
    misses = total - by_outcome[OK]
    return {
        "requests": total,
        "outcomes": by_outcome,
        "widths": dict(sorted(widths.items())),
        "lost": by_outcome[LOST],
        "miss_rate": misses / total if total else 0.0,
        "goodput_rps": by_outcome[OK] / duration_s if duration_s > 0 else 0.0,
        "latency": {
            "p50_s": nearest_rank(latencies, 50) if latencies else None,
            "p95_s": nearest_rank(latencies, 95) if latencies else None,
            "p99_s": nearest_rank(latencies, 99) if latencies else None,
            "max_s": latencies[-1] if latencies else None,
        },
    }
