"""Admission control: fail-fast feasibility decisions per SLA."""

import pytest

from repro.runtime.batching import DeadlineExceeded
from repro.scheduler.admission import (
    CRITICAL_PRIORITY,
    SLA,
    AdmissionController,
    AdmissionRejected,
)
from repro.scheduler.telemetry import MetricsRegistry


class TestSLA:
    def test_defaults(self):
        sla = SLA(deadline_s=0.05)
        assert sla.priority == 0
        assert sla.min_width is None and sla.max_width is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SLA(deadline_s=0.0)
        with pytest.raises(ValueError):
            SLA(deadline_s=0.05, priority=-1)


class TestAdmissionDecisions:
    def test_feasible_request_is_admitted(self):
        ctl = AdmissionController()
        sla = SLA(deadline_s=0.05)
        decision = ctl.decide_remaining(
            sla, remaining_s=sla.deadline_s, queue_wait_s=0.01, service_floor_s=0.01
        )
        assert decision.admitted

    def test_infeasible_request_is_rejected_with_reason(self):
        ctl = AdmissionController()
        sla = SLA(deadline_s=0.02)
        decision = ctl.decide_remaining(
            sla, remaining_s=sla.deadline_s, queue_wait_s=0.05, service_floor_s=0.01
        )
        assert not decision.admitted
        assert "infeasible" in decision.reason

    def test_rejection_is_a_deadline_exceeded(self):
        """Callers catching DeadlineExceeded see both fail-fast paths."""
        assert issubclass(AdmissionRejected, DeadlineExceeded)

    def test_expired_budget_is_rejected_even_for_critical(self):
        ctl = AdmissionController()
        decision = ctl.decide_remaining(
            SLA(deadline_s=0.05, priority=CRITICAL_PRIORITY),
            remaining_s=-0.001,
            queue_wait_s=0.0,
            service_floor_s=0.001,
        )
        assert not decision.admitted
        assert "expired" in decision.reason

    def test_critical_priority_bypasses_feasibility(self):
        ctl = AdmissionController()
        sla = SLA(deadline_s=0.02, priority=CRITICAL_PRIORITY)
        decision = ctl.decide_remaining(
            sla,
            remaining_s=sla.deadline_s,
            queue_wait_s=1.0,
            service_floor_s=1.0,
        )
        assert decision.admitted

    def test_headroom_scales_the_budget(self):
        # estimated 30ms vs budget 20ms: rejected at headroom 1, admitted at 2.
        sla = SLA(deadline_s=0.02)
        strict = AdmissionController(headroom=1.0)
        lax = AdmissionController(headroom=2.0)
        kwargs = dict(remaining_s=sla.deadline_s, queue_wait_s=0.02, service_floor_s=0.01)
        assert not strict.decide_remaining(sla, **kwargs).admitted
        assert lax.decide_remaining(sla, **kwargs).admitted

    def test_estimate_is_reported(self):
        sla = SLA(deadline_s=1.0)
        decision = AdmissionController().decide_remaining(
            sla, remaining_s=sla.deadline_s, queue_wait_s=0.2, service_floor_s=0.1
        )
        assert decision.estimated_s == pytest.approx(0.3)

    def test_invalid_headroom(self):
        with pytest.raises(ValueError):
            AdmissionController(headroom=0.0)


class TestAdmissionMetrics:
    def test_counters_track_outcomes(self):
        metrics = MetricsRegistry()
        ctl = AdmissionController(metrics=metrics)
        ctl.decide_remaining(
            SLA(deadline_s=1.0), remaining_s=1.0, queue_wait_s=0.0, service_floor_s=0.0
        )
        ctl.decide_remaining(
            SLA(deadline_s=0.01), remaining_s=0.01, queue_wait_s=5.0, service_floor_s=5.0
        )
        ctl.decide_remaining(
            SLA(deadline_s=1.0), remaining_s=0.0, queue_wait_s=0.0, service_floor_s=0.0
        )
        counters = metrics.snapshot()["counters"]
        assert counters["admission.admitted"] == 1
        assert counters["admission.rejected_infeasible"] == 1
        assert counters["admission.rejected_expired"] == 1
