"""Tests for compiled inference plans and the packed-weight cache.

The load-bearing properties:

* plan outputs are **bitwise identical** to the eager path for every
  model family, every sub-network width and both dtype policies;
* K threads on one plan (distinct workspaces, one shared packed cache)
  interfere with nothing;
* the steady-state hot path stays within a tiny allocation budget
  (tracemalloc-measured);
* a run's work follows its live rows: one plan per width serves every
  batch size up to its ceiling, and larger batches fall back to eager;
* packed blocks refresh when an optimizer step bumps the parameter
  version counter.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.engine.session import InferenceSession
from repro.models import build_model
from repro.nn import SGD, ForwardContext
from repro.nn import functional as F
from repro.nn.plan import InferencePlan, PackedWeightCache, compile_width_plans
from repro.utils import make_rng
from repro.utils.dtypes import DtypePolicy, dtype_policy
from repro.slimmable import paper_width_spec

FAMILIES = ("static", "dynamic", "fluid")
POLICIES = (DtypePolicy(), DtypePolicy.fast_inference())


@pytest.fixture(scope="module")
def models():
    return {fam: build_model(fam, rng=make_rng(11)) for fam in FAMILIES}


class TestEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("policy", POLICIES, ids=["float64", "float32"])
    def test_plan_matches_eager_bitwise_all_widths(self, models, family, policy):
        model = models[family]
        rng = make_rng(5)
        with dtype_policy(policy):
            cache = PackedWeightCache()
            for spec in model.width_spec.all_specs():
                session = InferenceSession(model, spec.name)
                plan = InferencePlan.compile(model, spec.name, batch_rows=6, cache=cache)
                for n in (1, 2, 6):
                    x = rng.standard_normal((n, 1, 28, 28))
                    eager = session.run(x)
                    got = plan.run(x)
                    assert got.dtype == eager.dtype
                    np.testing.assert_array_equal(got, eager)

    def test_run_parts_matches_concatenated_eager(self, models):
        model = models["fluid"]
        rng = make_rng(6)
        plan = InferencePlan.compile(model, "lower50", batch_rows=8)
        session = InferenceSession(model, "lower50")
        parts = [rng.standard_normal((k, 1, 28, 28)) for k in (1, 3, 2)]
        np.testing.assert_array_equal(
            plan.run_parts(parts), session.run(np.concatenate(parts))
        )

    def test_session_with_plan_is_transparent(self, models):
        model = models["fluid"]
        rng = make_rng(7)
        plan = InferencePlan.compile(model, "lower75", batch_rows=4)
        with_plan = InferenceSession(model, "lower75", plan=plan)
        eager = InferenceSession(model, "lower75")
        x = rng.standard_normal((3, 1, 28, 28))
        np.testing.assert_array_equal(with_plan.run(x), eager.run(x))
        # Oversized batches fall back to the eager path transparently.
        big = rng.standard_normal((9, 1, 28, 28))
        np.testing.assert_array_equal(with_plan.run(big), eager.run(big))

    def test_plan_refuses_mismatched_session_width(self, models):
        plan = InferencePlan.compile(models["fluid"], "lower50", batch_rows=2)
        with pytest.raises(ValueError):
            InferenceSession(models["fluid"], "lower100", plan=plan)

    def test_policy_switch_falls_back_to_eager(self, models):
        model = models["fluid"]
        x = make_rng(8).standard_normal((2, 1, 28, 28))
        plan = InferencePlan.compile(model, "lower100", batch_rows=4)  # float64 policy
        with dtype_policy(DtypePolicy.fast_inference()):
            assert not plan.accepts(x)
            session = InferenceSession(model, "lower100", plan=plan)
            out = session.run(x)  # eager float32, not the stale float64 plan
            assert out.dtype == np.float32


class TestCompile:
    def test_compile_accepts_view_and_net_and_family(self, models):
        model = models["fluid"]
        x = make_rng(9).standard_normal((2, 1, 28, 28))
        spec = model.width_spec.find("lower50")
        from_family = InferencePlan.compile(model, "lower50", batch_rows=2)
        from_net = InferencePlan.compile(model.net, spec, batch_rows=2)
        from_view = InferencePlan.compile(model.net.view(spec), batch_rows=2)
        a, b, c = from_family.run(x), from_net.run(x), from_view.run(x)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_compile_rejects_unknown_models(self):
        with pytest.raises(TypeError):
            InferencePlan.compile(object(), batch_rows=2)

    def test_flops_match_cost_model(self, models):
        from repro.device.cost import subnet_flops

        model = models["fluid"]
        for spec in model.width_spec.all_specs():
            plan = InferencePlan.compile(model, spec.name, batch_rows=1)
            assert plan.flops_per_image() == subnet_flops(model.net, spec)

    @pytest.mark.parametrize("inference", ["float64", "float32"])
    def test_compile_width_plans_compiles_in_the_policy_dtype(self, models, inference):
        with dtype_policy(DtypePolicy(inference=inference)):
            plans = compile_width_plans(models["fluid"], ["lower25", "lower100"], batch_rows=2)
        assert {plan.dtype for plan in plans.values()} == {np.dtype(inference)}

    def test_compile_width_plans_shares_one_cache(self, models):
        model = models["fluid"]
        plans = compile_width_plans(model, ["lower25", "lower100"], batch_rows=2)
        assert set(plans) == {"lower25", "lower100"}
        cache = plans["lower25"].cache
        assert plans["lower100"].cache is cache
        # Same (layer, slices, dtype) keys: plans of another row ceiling
        # over the same cache cost zero extra packs.
        packs = cache.packs
        for width in ("lower25", "lower100"):
            InferencePlan.compile(model, width, batch_rows=16, cache=cache)
        assert cache.packs == packs

    def test_oversized_request_rejected(self, models):
        plan = InferencePlan.compile(models["fluid"], "lower25", batch_rows=2)
        with pytest.raises(ValueError):
            plan.run(np.zeros((3, 1, 28, 28)))
        with pytest.raises(ValueError):
            plan.run_parts([np.zeros((2, 1, 28, 28)), np.zeros((1, 1, 28, 28))])


class TestConcurrency:
    def test_threads_share_cache_but_not_workspaces(self, models):
        """K threads x M runs over plans sharing one packed cache: results
        must equal the single-threaded eager reference for each thread's
        width — no cross-thread interference through shared scratch."""
        model = models["fluid"]
        widths = ["lower25", "lower50", "lower75", "lower100"]
        plans = compile_width_plans(model, widths, batch_rows=4)
        rng = make_rng(12)
        inputs = {w: rng.standard_normal((4, 1, 28, 28)) for w in widths}
        expected = {w: InferenceSession(model, w).run(inputs[w]) for w in widths}

        errors = []
        barrier = threading.Barrier(len(widths) * 2)

        def worker(width):
            try:
                barrier.wait()
                for _ in range(20):
                    got = plans[width].run(inputs[width])
                    if not np.array_equal(got, expected[width]):
                        raise AssertionError(f"mismatch at width {width}")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in widths for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        # Two threads hammered each plan: its pool grew to at most 2 arenas.
        for plan in plans.values():
            assert plan.workspaces.created <= 2


class TestStaleness:
    def test_optimizer_step_refreshes_packed_blocks(self):
        model = build_model("fluid", rng=make_rng(21))
        plan = InferencePlan.compile(model, "lower100", batch_rows=2)
        x = make_rng(22).standard_normal((2, 1, 28, 28))
        before = plan.run(x)
        packs_before = plan.cache.packs

        view = model.net.view(model.width_spec.full())
        view.train(True)
        ctx = ForwardContext()
        logits = view(x, ctx)
        view.backward(np.ones_like(logits), ctx)
        SGD(view.parameters(), lr=0.1).step()
        view.train(False)

        after = plan.run(x)
        assert plan.cache.packs > packs_before  # blocks re-packed lazily
        assert not np.array_equal(before, after)  # ...and the update is visible
        np.testing.assert_array_equal(after, InferenceSession(model, "lower100").run(x))

    def test_load_state_dict_refreshes_packed_blocks(self):
        donor = build_model("fluid", rng=make_rng(23))
        model = build_model("fluid", rng=make_rng(24))
        plan = InferencePlan.compile(model, "lower100", batch_rows=2)
        x = make_rng(25).standard_normal((2, 1, 28, 28))
        plan.run(x)
        model.load_state_dict(donor.state_dict())
        np.testing.assert_array_equal(
            plan.run(x), InferenceSession(donor, "lower100").run(x)
        )

    def test_parameter_version_counter(self):
        from repro.nn import Parameter

        p = Parameter(np.zeros((2, 2)))
        v0 = p.version
        p.bump_version()
        assert p.version == v0 + 1
        q = Parameter(np.ones((2, 2)))
        p.copy_(q)
        assert p.version == v0 + 2


class TestAllocationBudget:
    #: Steady-state per-request allocation ceiling, in bytes.  A compiled
    #: plan's only per-run allocation is the returned logits copy
    #: (rows x classes x itemsize = 8 x 10 x 8 = 640 bytes) plus small
    #: interpreter noise; the eager path allocates hundreds of kilobytes.
    PER_REQUEST_BUDGET = 16 * 1024

    def test_steady_state_allocations_stay_in_budget(self):
        model = build_model("fluid", rng=make_rng(31))
        plan = InferencePlan.compile(model, "lower100", batch_rows=8)
        x = make_rng(32).standard_normal((8, 1, 28, 28))
        plan.run(x)  # warm: arena + packed cache exist now
        runs = 20
        tracemalloc.start()
        for _ in range(runs):
            plan.run(x)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak / runs < self.PER_REQUEST_BUDGET, (
            f"steady-state allocations {peak / runs:.0f} B/request exceed "
            f"{self.PER_REQUEST_BUDGET} B"
        )

    def test_shifted_gemm_stays_in_the_same_budget(self):
        """The allclose backend's rolling row panel lives in the arena too
        (measured where it serves: the float32 policy, a full 16-row batch)."""
        model = build_model("fluid", rng=make_rng(31))
        x = make_rng(32).standard_normal((16, 1, 28, 28))
        with dtype_policy(DtypePolicy.fast_inference()):
            plan = InferencePlan.compile(
                model, "lower100", batch_rows=16, conv_backend="shifted-gemm"
            )
            plan.run(x)
            runs = 20
            tracemalloc.start()
            for _ in range(runs):
                plan.run(x)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak / runs < self.PER_REQUEST_BUDGET

    def test_plan_allocates_far_less_than_eager(self):
        model = build_model("fluid", rng=make_rng(33))
        plan = InferencePlan.compile(model, "lower100", batch_rows=8)
        session = InferenceSession(model, "lower100")
        x = make_rng(34).standard_normal((8, 1, 28, 28))
        plan.run(x)
        session.run(x)

        tracemalloc.start()
        plan.run(x)
        _, plan_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        session.run(x)
        _, eager_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert plan_peak * 10 < eager_peak, (plan_peak, eager_peak)


class TestLiveRows:
    """One plan per width serves every batch size up to its ceiling."""

    ROWS = (16, 3, 1, 16, 7, 1, 2)  # shrinking after growing reuses stale rows

    @pytest.fixture(scope="class")
    def model(self):
        return build_model("fluid", rng=make_rng(41))

    def test_shifted_gemm_runs_only_the_live_columns(self, model, monkeypatch):
        plan = InferencePlan.compile(
            model, "lower50", batch_rows=16, conv_backend="shifted-gemm"
        )
        columns = []
        real = F.shifted_gemm_conv

        def recording(xflat, w_panels, panel, *rest):
            columns.append(panel.shape[1])
            return real(xflat, w_panels, panel, *rest)

        monkeypatch.setattr(F, "shifted_gemm_conv", recording)
        plan.run(make_rng(42).standard_normal((1, 1, 28, 28)))
        assert columns == [hp * wp for hp, wp in (s.padded_hw for s in plan._steps)]

    @pytest.mark.parametrize("policy", POLICIES, ids=["float64", "float32"])
    def test_one_shifted_plan_per_width_tracks_eager(self, model, policy):
        rng = make_rng(43)
        with dtype_policy(policy):
            plans = compile_width_plans(
                model, [s.name for s in model.width_spec.all_specs()],
                batch_rows=16, conv_backend="shifted-gemm",
            )
            for width, plan in plans.items():
                session = InferenceSession(model, width)
                for rows in self.ROWS:
                    x = rng.standard_normal((rows, 1, 28, 28))
                    np.testing.assert_allclose(
                        plan.run(x), session.run(x), **F.shifted_gemm_tolerance(plan.dtype)
                    )

    def test_session_falls_back_to_eager_above_batch_rows(self, model):
        plan = InferencePlan.compile(model, "lower50", batch_rows=16)
        session = InferenceSession(model, "lower50", plan=plan)
        x = make_rng(46).standard_normal((17, 1, 28, 28))
        assert not plan.accepts(x)
        checkouts = plan.workspaces.checkouts
        out = session.run(x)
        assert out.shape == (17, 10)
        assert plan.workspaces.checkouts == checkouts
        np.testing.assert_array_equal(out, InferenceSession(model, "lower50").run(x))

    def test_zero_steady_state_allocations_at_1_and_16_rows(self, model):
        rng = make_rng(47)
        inputs = [rng.standard_normal((rows, 1, 28, 28)) for rows in (1, 16)]
        for backend in F.CONV_BACKENDS:
            plan = InferencePlan.compile(
                model, "lower50", batch_rows=16, conv_backend=backend
            )
            for x in inputs:
                plan.run(x)  # warm the arena
            runs = 10
            tracemalloc.start()
            for _ in range(runs):
                for x in inputs:
                    plan.run(x)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            per_request = peak / (runs * len(inputs))
            assert per_request < TestAllocationBudget.PER_REQUEST_BUDGET, (backend, per_request)
