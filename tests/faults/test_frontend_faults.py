"""Frontend degradation paths: brown-out, bounded retries, failure causes."""

import pytest

from repro.faults.policy import BrownoutPolicy, BrownoutShed, RetryExhausted, RetryPolicy
from repro.models.zoo import build_model
from repro.scheduler import pool as pool_module
from repro.scheduler.admission import CRITICAL_PRIORITY, SLA
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.frontend import ServingFrontend
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


def one_image(seed=1):
    return make_rng(seed).standard_normal((1, 1, 28, 28))


def make_frontend(model, **overrides):
    defaults = dict(replicas=2, warmup=False)
    defaults.update(overrides)
    return ServingFrontend(model, SchedulerConfig(**defaults))


def always_on_brownout(**overrides):
    """A policy that engages on the very first submit (depth 0 >= 0)."""
    defaults = dict(
        enter_queue_depth=0, exit_queue_depth=0,
        enter_miss_rate=0.5, exit_miss_rate=0.2,
        min_dwell_s=1000.0,
    )
    defaults.update(overrides)
    return BrownoutPolicy(**defaults)


class TestBrownout:
    def test_low_priority_admissions_are_shed(self, model):
        with make_frontend(model, brownout=always_on_brownout()) as frontend:
            future = frontend.submit(one_image(), SLA(deadline_s=5.0))
            with pytest.raises(BrownoutShed):
                future.result(timeout=5.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.brownout_sheds"] == 1
            assert counters["frontend.brownout_enters"] == 1
            assert counters["frontend.failures.brownout_shed"] == 1
            assert counters.get("frontend.completed", 0) == 0

    def test_critical_priority_is_served_with_clamped_width(self, model):
        with make_frontend(model, brownout=always_on_brownout()) as frontend:
            sla = SLA(deadline_s=5.0, priority=CRITICAL_PRIORITY)
            out = frontend.submit(one_image(), sla).result(timeout=10.0)
            assert out.shape == (1, 10)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.brownout_clamped"] == 1
            # The clamp serves the narrowest certified slice.
            assert counters["frontend.width.lower25"] == 1

    def test_clamp_respects_the_sla_width_floor(self, model):
        with make_frontend(model, brownout=always_on_brownout()) as frontend:
            sla = SLA(
                deadline_s=5.0, priority=CRITICAL_PRIORITY, min_width="lower75"
            )
            frontend.submit(one_image(), sla).result(timeout=10.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.width.lower75"] == 1

    def test_clamping_can_be_disabled(self, model):
        policy = always_on_brownout(clamp_width=False)
        with make_frontend(model, brownout=policy) as frontend:
            sla = SLA(deadline_s=60.0, priority=CRITICAL_PRIORITY)
            frontend.submit(one_image(), sla).result(timeout=10.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters.get("frontend.brownout_clamped", 0) == 0
            assert counters["frontend.width.lower100"] == 1

    def test_shed_never_feeds_the_miss_ewma(self, model):
        """Shedding must not keep brown-out engaged via its own signal."""
        with make_frontend(model, brownout=always_on_brownout()) as frontend:
            for i in range(5):
                with pytest.raises(BrownoutShed):
                    frontend.submit(one_image(i), SLA(deadline_s=5.0)).result(5.0)
            assert frontend.metrics.ewma("frontend.miss_rate").value is None

    def test_report_has_a_brownout_section(self, model):
        with make_frontend(model, brownout=always_on_brownout()) as frontend:
            with pytest.raises(BrownoutShed):
                frontend.submit(one_image(), SLA(deadline_s=5.0)).result(5.0)
            status = frontend.report()["brownout"]
            assert status["engaged"] and status["sheds"] == 1

    def test_no_brownout_by_default(self, model):
        with make_frontend(model) as frontend:
            assert frontend.brownout is None
            assert "brownout" not in frontend.report()


class TestRetryPolicyIntegration:
    def test_exhausted_retries_fail_with_retry_exhausted(self, model):
        """Both replicas dark + zero retry budget: the reroute gives up."""
        with make_frontend(
            model, retry_policy=RetryPolicy(max_retries=0)
        ) as frontend:
            for replica in frontend.pool.replicas:
                replica.kill()
            future = frontend.submit(one_image(), SLA(deadline_s=5.0))
            with pytest.raises(RetryExhausted):
                future.result(timeout=10.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.failures.retry_exhausted"] == 1
            assert counters.get("frontend.retries", 0) == 0

    def test_bounded_retry_still_reroutes_within_budget(self, model):
        with make_frontend(
            model, retry_policy=RetryPolicy(max_retries=3, backoff_base_s=0.001)
        ) as frontend:
            # Pin routing to the dead replica: the survivor looks loaded.
            frontend.pool.replicas[0].kill()
            frontend.pool.replicas[1].begin()
            future = frontend.submit(one_image(), SLA(deadline_s=30.0))
            frontend.pool.replicas[1].finish()
            assert future.result(timeout=30.0).shape == (1, 10)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.retries"] >= 1
            assert counters["frontend.reroutes"] >= 1

    def test_critical_requests_survive_a_zero_retry_budget(self, model):
        with make_frontend(
            model, retry_policy=RetryPolicy(max_retries=0, backoff_base_s=0.001)
        ) as frontend:
            frontend.pool.replicas[0].kill()
            frontend.pool.replicas[1].begin()
            sla = SLA(deadline_s=30.0, priority=CRITICAL_PRIORITY)
            future = frontend.submit(one_image(), sla)
            frontend.pool.replicas[1].finish()
            assert future.result(timeout=30.0).shape == (1, 10)

    def test_deadline_expiry_during_reroute_is_a_miss_not_a_loss(self, model, monkeypatch):
        """When the retry clock runs out *because the deadline passed*,
        the request is a deadline miss (REJECTED), never RetryExhausted."""
        from repro.runtime.batching import DeadlineExceeded

        config = SchedulerConfig(
            replicas=2,
            warmup=False,
            enable_admission=False,
            enable_hedging=False,  # a hedge leg would race the retry timer
            retry_policy=RetryPolicy(
                max_retries=100, backoff_base_s=0.3, backoff_max_s=0.3
            ),
        )
        # Slow heartbeats: ejection must come from report_failure so the
        # reroute leg reaches the dead replica instead of route() raising.
        monkeypatch.setattr(pool_module, "HEARTBEAT_INTERVAL_S", 60.0)
        with ServingFrontend(model, config) as frontend:
            for replica in frontend.pool.replicas:
                replica.kill()
            # The first reroute backs off min(0.3, remaining) — i.e. until
            # the deadline — so the second failure lands with no budget.
            future = frontend.submit(one_image(), SLA(deadline_s=0.2))
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.failures.deadline_expired"] == 1
            assert counters.get("frontend.failures.retry_exhausted", 0) == 0

    def test_default_config_keeps_unlimited_reroute(self, model):
        with make_frontend(model) as frontend:
            assert frontend.config.retry_policy is None
            frontend.pool.replicas[0].kill()
            frontend.pool.replicas[1].begin()
            future = frontend.submit(one_image(), SLA(deadline_s=30.0))
            frontend.pool.replicas[1].finish()
            assert future.result(timeout=30.0).shape == (1, 10)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters.get("frontend.retries", 0) == 0  # no policy: no counter


class TestFailureCauses:
    def test_admission_rejection_lands_in_its_own_counter(self, model):
        with make_frontend(model) as frontend:
            for spec in frontend.policy.candidates:
                frontend.policy.observe(spec.name, 10.0)
            future = frontend.submit(one_image(), SLA(deadline_s=0.001))
            with pytest.raises(Exception):
                future.result(timeout=5.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.failures.admission_rejected"] == 1

    def test_report_groups_failures_by_cause(self, model):
        with make_frontend(model, brownout=always_on_brownout()) as frontend:
            with pytest.raises(BrownoutShed):
                frontend.submit(one_image(), SLA(deadline_s=5.0)).result(5.0)
            report = frontend.report()
            assert report["failures"] == {"brownout_shed": 1}

    def test_no_failures_no_section(self, model):
        with make_frontend(model) as frontend:
            frontend.submit(one_image(), SLA(deadline_s=5.0)).result(timeout=10.0)
            assert "failures" not in frontend.report()
