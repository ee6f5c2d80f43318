"""SLA descriptors and fail-fast admission control.

Every request entering the serving control plane carries an :class:`SLA`:
a latency deadline, a priority, and optional bounds on which sub-network
widths may serve it.  The :class:`AdmissionController` rejects, *before
any compute is spent*, requests whose deadline is already infeasible
given the live queue depth and the fastest service time any allowed
width could deliver — the paper's "serve what the hardware allows"
stance applied per request: a request that cannot possibly meet its
deadline only steals capacity from requests that still can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.runtime.batching import DeadlineExceeded
from repro.scheduler.telemetry import MetricsRegistry

#: Priority at or above which a request is never rejected for estimated
#: infeasibility (it is still failed fast once its deadline has actually
#: passed).  Operators reserve this for traffic where a late answer is
#: better than no answer.
CRITICAL_PRIORITY = 1


class AdmissionRejected(DeadlineExceeded):
    """Fail-fast rejection: the SLA cannot be met, so no work is queued."""


@dataclass(frozen=True)
class SLA:
    """Per-request service-level descriptor.

    Args:
        deadline_s: latency budget from arrival to completed response.
        priority: 0 = best-effort; >= :data:`CRITICAL_PRIORITY` bypasses
            the feasibility estimate (only an already-expired deadline is
            rejected).
        min_width: narrowest sub-network name acceptable to the caller
            (quality floor); ``None`` = any.
        max_width: widest sub-network name the caller wants (latency /
            cost ceiling); ``None`` = any.
    """

    deadline_s: float
    priority: int = 0
    min_width: Optional[str] = None
    max_width: Optional[str] = None

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str
    estimated_s: float  # predicted queue wait + floor service time


class AdmissionController:
    """Decides, per request, whether its deadline is still reachable.

    The feasibility estimate is deliberately simple and cheap:
    ``queue_wait + service_floor <= budget * headroom`` where
    ``service_floor`` is the predicted service of the *narrowest* width
    the SLA allows (the best the plane could possibly do) and
    ``queue_wait`` is the caller's live estimate of time spent behind
    already-admitted work.  ``headroom > 1`` admits optimistically (useful
    when the wait estimate is known to be conservative), ``< 1``
    pessimistically.
    """

    def __init__(
        self, *, headroom: float = 1.0, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        if headroom <= 0:
            raise ValueError("headroom must be positive")
        self.headroom = headroom
        self.metrics = metrics or MetricsRegistry()

    def decide_remaining(
        self,
        sla: SLA,
        *,
        remaining_s: float,
        queue_wait_s: float,
        service_floor_s: float,
    ) -> AdmissionDecision:
        """Assess with an explicitly remaining budget (clock already running)."""
        estimated = queue_wait_s + service_floor_s
        if remaining_s <= 0:
            self.metrics.counter("admission.rejected_expired").inc()
            return AdmissionDecision(
                False, "deadline already expired at admission", estimated
            )
        if sla.priority >= CRITICAL_PRIORITY:
            self.metrics.counter("admission.admitted").inc()
            return AdmissionDecision(True, "critical priority", estimated)
        if estimated > remaining_s * self.headroom:
            self.metrics.counter("admission.rejected_infeasible").inc()
            return AdmissionDecision(
                False,
                f"infeasible: estimated {estimated * 1e3:.2f}ms "
                f"(wait {queue_wait_s * 1e3:.2f}ms + floor {service_floor_s * 1e3:.2f}ms) "
                f"> budget {remaining_s * 1e3:.2f}ms",
                estimated,
            )
        self.metrics.counter("admission.admitted").inc()
        return AdmissionDecision(True, "feasible", estimated)
