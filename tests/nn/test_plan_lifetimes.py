"""The buffer lifetimes compiled programs declare, and the arena they buy.

A workspace lays two buffers over the same bytes whenever their declared
lifetimes are disjoint, so a lifetime that is too short corrupts an answer
silently.  The load-bearing properties, for every compiled program (the
single-device :class:`InferencePlan`, and the per-device
:class:`DevicePartitionPlan` driven round by round):

* the interval a buffer declares is exactly the first and last kernel step
  that touches its bytes;
* no transient is read before the pass has written it — the scratch region
  may hold anything when a run starts, NaN included;
* a workspace occupies exactly its persistent bytes plus the pass's peak
  co-live bytes, and an identical plan built again computes no placement.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine.dist_plan import DevicePartitionPlan
from repro.engine.graph import BlockPartition
from repro.engine.partitioned import partitioned_forward_reference
from repro.engine.session import InferenceSession
from repro.nn import functional as F
from repro.nn.plan import InferencePlan, PackedWeightCache, compile_width_plans
from repro.nn.workspace import Workspace, WorkspacePool, buffer_layout
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.utils.dtypes import DtypePolicy, dtype_policy
from repro.utils.rng import make_rng

POLICIES = pytest.mark.parametrize(
    "policy", (DtypePolicy(), DtypePolicy.fast_inference()), ids=["float64", "float32"]
)
ROWS = (16, 1, 5, 16)  # full, then smaller batches over the stale rows, then full again


@pytest.fixture(scope="module")
def net():
    return SlimmableConvNet(paper_width_spec(), rng=make_rng(3))


def batch(rows, seed=0):
    return make_rng(seed).standard_normal((rows, 1, 28, 28))


def partition_plans(net, rows):
    """The paper's two-device HA deployment of the full-width model."""
    spec = net.width_spec.full()
    partition = BlockPartition.two_way(net.width_spec.split, net.width_spec.max_width)
    cache = PackedWeightCache()
    plans = [
        DevicePartitionPlan.compile(
            net, spec, partition.boundaries, index, batch_rows=rows, cache=cache
        )
        for index in range(partition.num_blocks)
    ]
    return spec, partition, plans


def partitioned_pass(spec, partition, plans, x, prepare=lambda workspace: None):
    """One HA batch through the plans' own round API, as an endpoint drives it."""
    runs = [plan.begin(x.shape[0]) for plan in plans]
    try:
        for plan, run in zip(plans, runs):
            prepare(run.workspace)
            plan.scatter_input(run, x)
        halves = []
        for layer in range(len(spec.conv_slices)):
            for i, (plan, run) in enumerate(zip(plans, runs)):
                for j, half in enumerate(halves):
                    if j != i:
                        block = partition.clipped_block(j, spec.conv_slices[layer - 1].stop)
                        plan.absorb(run, layer, block, half)
            halves = [plan.run_layer(run, layer) for plan, run in zip(plans, runs)]
        assert halves == [None] * len(plans)  # the last conv round ships nothing
        partials = [
            plan.run_fc(run, include_bias=i == 0)
            for i, (plan, run) in enumerate(zip(plans, runs))
        ]
        return sum(partials[1:], partials[0].copy())
    finally:
        for plan, run in zip(plans, runs):
            plan.finish(run)


#: Every call a compiled program makes that reads or writes arena memory.
KERNELS = [
    (F, "im2col_into"),
    (F, "gemm_bias_relu"),
    (F, "maxpool2d_into"),
    (F, "gemm_bias"),
    (np, "copyto"),
    (np, "dot"),
]


class TestDeclaredLifetimesAreTrue:
    """``live`` is the first and last kernel step that touches the buffer.

    Watched where the bytes are touched, not where ``ws[name]`` hands the
    view out: a view fetched for the GEMM is still read by the copy after it.
    """

    @pytest.fixture
    def observe(self, monkeypatch):
        """``observe(plan)`` -> a dict that fills, as the plan runs, with
        ``name -> (first, last)`` kernel step that took an operand inside it.

        The plan runs on its own buffer list with the lifetimes stripped —
        bytes of its own for every buffer, so an operand names its buffer.
        A kernel step is a kernel call with an operand in a transient; the
        input scatter and a halo ``absorb`` touch whole-run arenas only.
        """
        watched = []  # (workspace, transient names, name -> (first, last))
        nested = []

        def spy(kernel):
            def call(*args, **kwargs):
                operands = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
                for workspace, transients, seen in [] if nested else watched:
                    step = 1 + max((last for _, last in seen.values()), default=-1)
                    for name in transients:
                        if any(np.may_share_memory(a, workspace[name]) for a in operands):
                            seen[name] = (seen.get(name, (step, step))[0], step)
                nested.append(kernel)  # a kernel's own calls are not program steps
                try:
                    return kernel(*args, **kwargs)
                finally:
                    nested.pop()

            return call

        for module, name in KERNELS:
            monkeypatch.setattr(module, name, spy(getattr(module, name)))

        def observe(plan):
            specs = plan.workspaces.specs
            dedicated = [dataclasses.replace(s, live=None) for s in specs]
            plan.workspaces = WorkspacePool(dedicated, prealloc=0)
            workspace = Workspace(dedicated)
            plan.workspaces.release(workspace)
            seen = {}
            watched.append((workspace, [s.name for s in specs if not s.persistent], seen))
            return seen

        return observe

    @staticmethod
    def declared(plan_specs):
        return {s.name: s.live for s in plan_specs if not s.persistent}

    @pytest.mark.parametrize("width", ["lower25", "lower100", "upper50"])
    def test_inference_plan(self, net, observe, width):
        plan = InferencePlan.compile(net, width, batch_rows=4)
        declared = self.declared(plan.workspaces.specs)
        seen = observe(plan)
        x = batch(3)
        got = plan.run(x)
        assert seen == declared and len(declared) >= 9
        np.testing.assert_array_equal(got, InferenceSession(net, width).run(x))

    def test_partition_plan_round_by_round(self, net, observe):
        spec, partition, plans = partition_plans(net, rows=4)
        declared = [self.declared(plan.workspaces.specs) for plan in plans]
        seen = [observe(plan) for plan in plans]
        partitioned_pass(spec, partition, plans, batch(3))
        assert seen == declared and all(len(d) >= 9 for d in declared)

    def test_whole_run_buffers_are_the_arenas_and_the_logits(self, net):
        """What a later round, or the caller, still reads never shares bytes."""
        _, _, plans = partition_plans(net, rows=2)
        for plan in [InferencePlan.compile(net, "lower100", batch_rows=2), *plans]:
            whole_run = {s.name for s in plan.workspaces.specs if s.persistent}
            assert whole_run == {"in0", "in1", "in2", "logits"}


def poison(workspace):
    workspace.scratch.fill(0xFF)  # all-ones bytes read as NaN at either float width


class TestPoisonedScratch:
    @POLICIES
    def test_im2col_plan_equals_eager_bitwise(self, net, policy):
        with dtype_policy(policy):
            for spec in net.width_spec.all_specs():
                plan = InferencePlan.compile(net, spec, batch_rows=16)
                session = InferenceSession(net, spec.name)
                for seed, rows in enumerate(ROWS):
                    with plan.workspaces.checkout() as workspace:
                        poison(workspace)
                        assert np.isnan(workspace["cols1"]).all()
                    x = batch(rows, seed)
                    np.testing.assert_array_equal(plan.run(x), session.run(x))
                assert plan.workspaces.created == 1  # one workspace took every run

    @POLICIES
    def test_two_device_partition_plan_equals_eager_bitwise(self, net, policy):
        with dtype_policy(policy):
            spec, partition, plans = partition_plans(net, rows=16)
            for seed, rows in enumerate(ROWS):
                x = batch(rows, seed)
                got = partitioned_pass(spec, partition, plans, x, prepare=poison)
                want, _ = partitioned_forward_reference(net, spec, net.width_spec.split, x)
                np.testing.assert_array_equal(got, want)
            assert [plan.workspaces.created for plan in plans] == [1, 1]


def _aligned(nbytes):
    return -(-nbytes // 64) * 64


def footprint_lower_bound(specs):
    """Bytes no placement can go below: what persists + the peak of what meets."""
    transients = [s for s in specs if not s.persistent]
    peak = max(
        sum(_aligned(s.nbytes) for s in transients if s.live[0] <= step <= s.live[1])
        for step in range(1 + max(s.live[1] for s in transients))
    )
    return sum(_aligned(s.nbytes) for s in specs if s.persistent) + peak


class TestFootprint:
    @POLICIES
    @pytest.mark.parametrize("rows", [1, 16])
    def test_paper_widths_sit_on_the_lower_bound(self, net, policy, rows):
        widths = [s.name for s in net.width_spec.lower_family()]
        with dtype_policy(policy):
            plans = compile_width_plans(net, widths, batch_rows=rows)
        occupied = dedicated = 0
        for plan in plans.values():
            pool = plan.workspaces
            assert pool.workspace_nbytes == footprint_lower_bound(pool.specs)
            with pool.checkout() as workspace:
                assert workspace.nbytes == pool.workspace_nbytes
            occupied += pool.workspace_nbytes
            dedicated += sum(s.nbytes for s in pool.specs)
        assert occupied < dedicated / 2
        if plan.dtype == np.float64:
            # At 16 rows ``occupied`` is benchmarks/e2e's nn.plan.arena_mb,
            # and ``dedicated`` what it would be if every buffer had bytes
            # of its own.  A conv's one-image staging buffer fits in dead
            # scratch bytes at 16 rows; at 1 row it is as large as the
            # columns it stages.
            pinned = {1: (1_266_304, 2_658_304), 16: (12_527_616, 28_561_984)}
            assert (occupied, dedicated) == pinned[rows]

    def test_an_identical_plan_built_again_computes_no_placement(self, net):
        widths = [s.name for s in net.width_spec.lower_family()]
        compile_width_plans(net, widths, batch_rows=16)
        before = buffer_layout.cache_info()
        compile_width_plans(net, widths, batch_rows=16)
        after = buffer_layout.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + len(widths)

    def test_a_pool_without_workspaces_computes_no_placement(self, net):
        before = buffer_layout.cache_info()
        plan = InferencePlan.compile(net, "lower50", batch_rows=7, workspaces=0)
        assert buffer_layout.cache_info() == before
        plan.run(batch(7))  # the first checkout is the first to ask
        after = buffer_layout.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1
