"""The shared decision path: ``core.decide`` cases, the one classifier, and
the "one copy" fact — live ``submit`` and virtual-time ``simulate`` run the
same function."""

import numpy as np
import pytest

from repro.faults.policy import BrownoutController, BrownoutPolicy, BrownoutShed
from repro.models.zoo import build_model
from repro.runtime.batching import DeadlineExceeded
from repro.scheduler import core
from repro.scheduler.admission import SLA, AdmissionController, AdmissionRejected
from repro.scheduler.frontend import SchedulerConfig, ServingFrontend
from repro.scheduler.pool import ReplicaUnavailable
from repro.scheduler.width_policy import WidthPolicy
from repro.trace.recorder import LATE, LOST, OK, REJECTED, RequestSpec
from repro.trace.replay import TraceReplayer
from repro.utils.rng import make_rng

#: The policy's service model: 1 ms plus 3 ms per widest-width FLOP share,
#: so one row takes 1.29 / 1.88 / 2.79 / 4.00 ms at lower25 / 50 / 75 / 100.
COEF = (0.001, 0.0, 0.003, 0.0)


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


def make_view(model, *, queue_wait_s=0.0, depth=0, brownout=None, admission=True):
    candidates = ServingFrontend._default_candidates(model, model.net)
    policy = WidthPolicy(model.net, candidates, coef=COEF)
    controller = None
    if brownout is not None:
        controller = BrownoutController(brownout, clock=lambda: 0.0)
    return core.PlaneView(
        policy=policy,
        admission=AdmissionController() if admission else None,
        brownout=controller,
        depth=lambda: depth,
        miss_rate=lambda: None,
        queue_wait=lambda: queue_wait_s,
    )


OVERLOAD = BrownoutPolicy(enter_queue_depth=4, exit_queue_depth=1)

# (case, sla, remaining_s, view kwargs) -> (error type or None, width, clamped)
DECIDE_CASES = [
    ("shed", SLA(0.05), 0.05, dict(depth=9, brownout=OVERLOAD),
     (BrownoutShed, None, False)),
    ("expired", SLA(0.05, priority=1), 0.0, {},
     (AdmissionRejected, None, False)),
    ("infeasible", SLA(0.05), 0.05, dict(queue_wait_s=0.0495),
     (AdmissionRejected, None, False)),
    ("critical-priority admit", SLA(0.05, priority=1), 0.05, dict(queue_wait_s=0.2),
     (None, "lower25", False)),
    ("clamp under brown-out", SLA(0.05, priority=1), 0.05, dict(depth=9, brownout=OVERLOAD),
     (None, "lower25", True)),
    ("clamp respects min_width", SLA(0.05, priority=1, min_width="lower50"), 0.05,
     dict(depth=9, brownout=OVERLOAD), (None, "lower50", True)),
    ("brown-out idle below depth", SLA(0.05), 0.05, dict(depth=3, brownout=OVERLOAD),
     (None, "lower100", False)),
    ("widest that fits", SLA(0.05), 0.05, dict(queue_wait_s=0.0475),
     (None, "lower50", False)),
    ("widest allowed that fits", SLA(0.05, max_width="lower75"), 0.05, {},
     (None, "lower75", False)),
    ("nothing fits: narrowest allowed", SLA(0.05), 0.05,
     dict(queue_wait_s=0.0495, admission=False), (None, "lower25", False)),
]


class TestDecide:
    @pytest.mark.parametrize(
        "sla, remaining_s, view_kwargs, expected",
        [case[1:] for case in DECIDE_CASES],
        ids=[case[0] for case in DECIDE_CASES],
    )
    def test_decision_table(self, model, sla, remaining_s, view_kwargs, expected):
        error_type, width, clamped = expected
        view = make_view(model, **view_kwargs)
        decision = core.decide(sla, remaining_s, 1, view)
        if error_type is not None:
            assert type(decision.error) is error_type
            assert decision.width is None
            assert decision.shed == (error_type is BrownoutShed)
            return
        assert decision.error is None and not decision.shed
        assert decision.width.name == width
        assert decision.predicted_s == view.policy.model.seconds(width, 1)
        assert decision.clamped is clamped

    def test_budget_is_what_remains_after_the_queue(self, model):
        view = make_view(model, queue_wait_s=0.01)
        decision = core.decide(SLA(0.05), 0.04, 1, view)
        assert decision.queue_wait_s == 0.01
        assert decision.budget_s == pytest.approx(0.03)
        assert decision.admission.admitted
        floor = view.policy.model.seconds("lower25", 1)
        assert decision.admission.estimated_s == pytest.approx(0.01 + floor)

    def test_rejection_carries_the_controllers_reason_and_estimate(self, model):
        view = make_view(model, queue_wait_s=0.0495)
        decision = core.decide(SLA(0.05), 0.05, 1, view)
        assert not decision.admission.admitted
        assert str(decision.error) == decision.admission.reason
        floor = view.policy.model.seconds("lower25", 1)
        assert decision.admission.estimated_s == pytest.approx(0.0495 + floor)

    def test_admission_disabled_reports_no_admission_decision(self, model):
        decision = core.decide(SLA(0.05), 0.05, 1, make_view(model, admission=False))
        assert decision.admission is None and decision.width.name == "lower100"

    def test_a_shed_never_reads_the_queue(self, model):
        view = make_view(model, depth=9, brownout=OVERLOAD)._replace(
            queue_wait=lambda: pytest.fail("shed must precede the wait estimate")
        )
        assert core.decide(SLA(0.05), 0.05, 1, view).shed


class TestClassifyOutcome:
    @pytest.mark.parametrize(
        "latency_s, error, expected",
        [
            (0.01, None, OK),
            (0.05, None, OK),  # the deadline itself is on time
            (0.0501, None, LATE),
            (None, AdmissionRejected("infeasible"), REJECTED),
            (None, BrownoutShed("shed"), REJECTED),
            (None, DeadlineExceeded("expired in queue"), REJECTED),
            (None, ReplicaUnavailable("pool dead"), LOST),
            (None, RuntimeError("boom"), LOST),
        ],
    )
    def test_table(self, latency_s, error, expected):
        assert core.classify_outcome(0.05, latency_s, error) == expected


class TestOneCopy:
    def test_live_submit_and_simulate_both_run_core_decide(self, model, monkeypatch):
        """Replace the rule once; both clocks must obey the replacement."""
        real = core.decide
        calls = []

        def narrowest_always(sla, remaining_s, rows, plane):
            calls.append(remaining_s)
            decision = real(sla, remaining_s, rows, plane)
            if decision.error is not None:
                return decision
            spec = plane.policy.narrowest(sla.min_width, sla.max_width)
            return decision._replace(
                width=spec, predicted_s=plane.policy.model.seconds(spec.name, rows)
            )

        specs = [
            RequestSpec(request_id=i, arrival_s=0.01 * i, deadline_s=5.0) for i in range(4)
        ]
        x = make_rng(1).standard_normal((1, 1, 28, 28))
        config = SchedulerConfig(replicas=1, warmup=False, enable_hedging=False)

        before = TraceReplayer(specs, duration_s=0.1).simulate(model, config)
        assert before["widths"] == {"lower100": 4}

        monkeypatch.setattr(core, "decide", narrowest_always)
        after = TraceReplayer(specs, duration_s=0.1).simulate(model, config)
        assert after["widths"] == {"lower25": 4}
        assert len(calls) == 4

        with ServingFrontend(model, config) as frontend:
            out = frontend.submit(x, SLA(deadline_s=5.0)).result(timeout=10.0)
            counters = frontend.report()["metrics"]["counters"]
        assert len(calls) == 5
        assert counters["frontend.width.lower25"] == 1
        assert "frontend.width.lower100" not in counters
        view = model.net.view(model.net.width_spec.find("lower25"))
        view.train(False)
        np.testing.assert_allclose(out, view(x), atol=1e-5)
