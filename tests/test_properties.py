"""Cross-module property-based tests (hypothesis).

These pin the invariants the reproduction rests on, over randomised
configurations rather than hand-picked cases:

* partitioned execution is exact for any split and any combined width;
* the policy never deploys an uncertified or non-resident sub-network;
* throughput-model identities (HT additivity, HA comm monotonicity);
* freeze masks really freeze, for arbitrary stage orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.modes import MASTER, WORKER, ExecutionMode
from repro.engine.partitioned import partitioned_forward_reference
from repro.engine.plan import solo_plan
from repro.models.zoo import build_model
from repro.nn.context import ForwardContext
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.optim.sgd import SGD
from repro.slimmable.masks import RegionTracker
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def shared_net():
    return SlimmableConvNet(paper_width_spec(), rng=make_rng(0))


class TestPartitionedExactness:
    @settings(max_examples=12, deadline=None)
    @given(split=st.integers(1, 15), width_idx=st.integers(0, 3), seed=st.integers(0, 100))
    def test_any_split_any_width(self, shared_net, split, width_idx, seed):
        ws = shared_net.width_spec
        width = ws.lower_widths[width_idx]
        if split >= width:
            return  # split must fall inside the combined slice
        spec = ws.lower(width)
        x = make_rng(seed).standard_normal((2, 1, 28, 28))
        view = shared_net.view(spec)
        view.train(False)
        reference = view(x)
        partitioned, _ = partitioned_forward_reference(shared_net, spec, split, x)
        np.testing.assert_allclose(partitioned, reference, atol=1e-9)


class TestPolicyInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["static", "dynamic", "fluid"]),
        alive_mask=st.integers(0, 3),
        target=st.sampled_from(["accuracy", "throughput"]),
    )
    def test_plans_are_always_legal(self, family, alive_mask, target):
        from repro.runtime.policy import AdaptationPolicy

        model = build_model(family, rng=make_rng(0))
        tm = SystemThroughputModel(
            model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        policy = AdaptationPolicy(model, tm, target=target)
        alive = frozenset(
            name for bit, name in ((1, "master"), (2, "worker")) if alive_mask & bit
        )
        plan = policy.plan(alive)

        # 1. Only alive devices are ever assigned work.
        for assignment in plan.assignments:
            assert assignment.device in alive
        # 2. Standalone assignments are certified and resident.
        if plan.mode is not ExecutionMode.HIGH_ACCURACY:
            for assignment in plan.assignments:
                assert model.is_standalone_certified(assignment.subnet)
                block = (MASTER, WORKER).index(assignment.device)
                resident = [
                    s.name for s in policy.tm.partition.resident_specs(block, model.width_spec)
                ]
                assert assignment.subnet in resident
        # 3. HA plans require both devices and a certified combined model.
        if plan.mode is ExecutionMode.HIGH_ACCURACY:
            assert alive == frozenset({"master", "worker"})
            assert model.is_combined_certified(plan.combined_subnet)
        # 4. No devices -> failed.
        if not alive:
            assert plan.mode is ExecutionMode.FAILED


class TestThroughputIdentities:
    @settings(max_examples=20, deadline=None)
    @given(
        m_idx=st.integers(0, 3),
        w_idx=st.integers(0, 1),
        scale=st.floats(0.1, 10.0),
    )
    def test_ht_additivity(self, shared_net, m_idx, w_idx, scale):
        ws = shared_net.width_spec
        master_spec = ws.lower_family()[m_idx]
        worker_spec = ws.upper_family()[w_idx]
        comm = CommLatencyModel().scaled_latency(scale)
        tm = SystemThroughputModel(
            shared_net, jetson_nx_master(), jetson_nx_worker(), comm
        )
        ht = tm.ht_throughput(master_spec, worker_spec).throughput_ips
        solo_m = tm.evaluate_plan(solo_plan(MASTER, master_spec.name)).throughput_ips
        solo_w = tm.evaluate_plan(solo_plan(WORKER, worker_spec.name)).throughput_ips
        assert ht == pytest.approx(solo_m + solo_w)

    @settings(max_examples=20, deadline=None)
    @given(factor=st.floats(1.01, 50.0))
    def test_ha_monotone_in_comm_latency(self, shared_net, factor):
        ws = shared_net.width_spec
        base_comm = CommLatencyModel()
        tm_base = SystemThroughputModel(
            shared_net, jetson_nx_master(), jetson_nx_worker(), base_comm
        )
        tm_slow = SystemThroughputModel(
            shared_net,
            jetson_nx_master(),
            jetson_nx_worker(),
            base_comm.scaled_latency(factor),
        )
        assert (
            tm_slow.ha_throughput(ws.full()).throughput_ips
            < tm_base.ha_throughput(ws.full()).throughput_ips
        )


class TestFreezeInvariant:
    @settings(max_examples=8, deadline=None)
    @given(
        stage_order=st.permutations([0, 1, 2, 3]),
        seed=st.integers(0, 50),
    )
    def test_covered_regions_never_move(self, stage_order, seed):
        """For any order of lower-family stages: once a stage's region is
        marked covered, later stages' optimisation steps never change it."""
        rng = make_rng(seed)
        net = SlimmableConvNet(paper_width_spec(), rng=make_rng(1))
        tracker = RegionTracker()
        loss_fn = SoftmaxCrossEntropy()
        x = rng.standard_normal((8, 1, 28, 28))
        y = rng.integers(0, 10, 8)
        specs = [net.width_spec.lower_family()[i] for i in stage_order]

        snapshots = []
        for spec in specs:
            net.apply_freeze(spec, tracker)
            view = net.view(spec)
            opt = SGD(view.parameters(), lr=0.1, momentum=0.9)
            for _ in range(2):
                ctx = ForwardContext()
                logits = view(x, ctx)
                _, grad = loss_fn(logits, y)
                opt.zero_grad()
                view.backward(grad, ctx)
                opt.step()
            # Check every previously covered region is bit-identical.
            for params_snapshot, covered_snapshot in snapshots:
                for pid, (data, covered) in params_snapshot.items():
                    current = covered_snapshot[pid]
                    np.testing.assert_array_equal(
                        current.data * covered, data * covered
                    )
            for param, region in net.region_masks(spec):
                tracker.mark(param, region)
            snapshot = {
                id(p): (p.data.copy(), tracker.covered(p).copy())
                for p in net.parameters()
            }
            snapshots.append((snapshot, {id(p): p for p in net.parameters()}))
