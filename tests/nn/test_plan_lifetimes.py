"""The buffer lifetimes compiled programs declare, and the arena they buy.

A workspace lays two buffers over the same bytes whenever their declared
lifetimes are disjoint, so a lifetime that is too short corrupts an answer
silently.  The load-bearing properties, for every compiled program (the
single-device :class:`InferencePlan`, and the per-device one compiled over
its channel block and driven round by round):

* the interval a buffer declares is exactly the first and last kernel step
  that touches its bytes;
* no transient is read before the pass has written it — the scratch region
  may hold anything when a run starts, NaN included;
* a workspace occupies exactly its persistent bytes plus the pass's peak
  co-live bytes, and an identical plan built again computes no placement.
"""

import dataclasses
import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.graph import BlockPartition
from repro.engine.partitioned import partitioned_forward_reference
from repro.engine.session import InferenceSession
from repro.nn import functional as F
from repro.nn.plan import InferencePlan, PackedWeightCache, compile_width_plans
from repro.nn.workspace import WorkspacePool, buffer_layout, buffer_layouts
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.utils.dtypes import DtypePolicy, dtype_policy
from repro.utils.rng import make_rng
from tests.nn.arenas import checked_out

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
        InferencePlan.compile(
            net, spec, batch_rows=rows, cache=cache,
            block_of=functools.partial(partition.clipped_block, index),
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

        def arrays(args):
            """The arrays among ``args``, inside the tuples of a bound gather or pool too."""
            for a in args:
                if isinstance(a, np.ndarray):
                    yield a
                elif isinstance(a, tuple):
                    yield from arrays(a)

        def spy(kernel):
            def call(*args, **kwargs):
                operands = list(arrays((*args, *kwargs.values())))
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
            plan.workspaces = WorkspacePool(dedicated)
            with checked_out(plan.workspaces) as workspace:
                pass
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
                    with checked_out(plan.workspaces) as workspace:
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


WIDTHS = ("lower25", "lower50", "lower75", "lower100")


@pytest.fixture(scope="module")
def width_plans(net):
    """One serving set per dtype policy, kept across examples as a server keeps it."""
    sets = {}

    def plans(policy):
        if policy not in sets:
            with dtype_policy(policy):
                sets[policy] = compile_width_plans(net, WIDTHS, batch_rows=16)
        return sets[policy]

    return plans


def border_cells(buf, padding):
    """The cells of a padded NCHW arena no run ever writes."""
    mask = np.ones(buf.shape, dtype=bool)
    mask[:, :, padding:-padding, padding:-padding] = False
    return buf[mask]


class TestOneArenaSetForEveryWidth:
    """The widths of one set share arena sets sized to the widest."""

    @POLICIES
    @settings(max_examples=20, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from(WIDTHS), st.integers(1, 16)), min_size=1, max_size=8))
    def test_any_width_sequence_equals_eager_and_keeps_every_border_zero(
        self, net, width_plans, policy, runs
    ):
        plans = width_plans(policy)
        with dtype_policy(policy):
            for seed, (width, rows) in enumerate(runs):
                plan = plans[width]
                with checked_out(plan.workspaces) as workspace:
                    poison(workspace)
                x = batch(rows, seed)
                np.testing.assert_array_equal(plan.run(x), InferenceSession(net, width).run(x))
        for plan in plans.values():
            with checked_out(plan.workspaces) as workspace:
                padded = [step for step in plan._steps if step.padding]
                assert {step.src for step in padded} == {"in0", "in1", "in2"}
                for step in padded:
                    assert not border_cells(workspace[step.src], step.padding).any()
        assert plan.workspaces.shared.created == 1

    def test_concurrent_widths_take_distinct_arena_sets(self, net):
        plans = compile_width_plans(net, WIDTHS, batch_rows=16)
        barrier = threading.Barrier(2)
        held, errors = {}, []

        def run(width, seed):
            try:
                plan = plans[width]
                x = batch(16, seed)
                run = plan.begin(16)
                try:
                    held[width] = run.workspace
                    barrier.wait(timeout=10)  # both sets are checked out here
                    plan.scatter_input(run, x)
                    for layer in range(len(plan._steps)):
                        plan.run_layer(run, layer)
                    got = plan.run_fc(run, include_bias=True).copy()
                    barrier.wait(timeout=10)
                finally:
                    plan.finish(run)
                np.testing.assert_array_equal(got, InferenceSession(net, width).run(x))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=run, args=a) for a in (("lower25", 1), ("lower100", 2))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        narrow, wide = held["lower25"], held["lower100"]
        assert not np.shares_memory(narrow.scratch, wide.scratch)
        assert not np.shares_memory(narrow.persistent, wide.persistent)
        # The concurrency peak, not widths x peak.
        assert plans["lower25"].workspaces.shared.created == 2

    def test_threads_over_every_width_lose_no_arena_set(self, net):
        """More threads than cores, switching every microsecond, each running
        random widths: every answer is eager's, and every arena set the pool
        ever allocated is back on its free list afterwards."""
        plans = compile_width_plans(net, WIDTHS, batch_rows=4)
        x = batch(4, 7)
        want = {width: InferenceSession(net, width).run(x) for width in WIDTHS}
        errors, threads = [], 6

        def run(seed):
            try:
                for width in make_rng(seed).choice(WIDTHS, size=25):
                    np.testing.assert_array_equal(plans[width].run(x), want[width])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(seed,)) for seed in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors, errors[0]
        shared = plans["lower25"].workspaces.shared
        assert 1 <= shared.created <= threads
        assert len(shared._free) == shared.created
        assert sum(plan.workspaces.checkouts for plan in plans.values()) == threads * 25

    def test_serial_widths_share_one_arena_set(self, net):
        plans = compile_width_plans(net, WIDTHS, batch_rows=16)
        for seed, width in enumerate(WIDTHS * 3):
            plans[width].run(batch(seed % 16 + 1, seed))
        assert plans["lower25"].workspaces.shared.created == 1
        # Each width built its views of that one set once, and kept them.
        assert [plan.workspaces.created for plan in plans.values()] == [1, 1, 1, 1]
        assert [plan.workspaces.checkouts for plan in plans.values()] == [3, 3, 3, 3]


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
            specs = plan.workspaces.specs
            own = buffer_layout(specs).nbytes
            assert own == footprint_lower_bound(specs)
            occupied += own
            dedicated += sum(s.nbytes for s in specs)
        # The set checks out one arena set per concurrent run, sized to the
        # widest width, whatever width runs in it.
        widest = buffer_layout(plans[widths[-1]].workspaces.specs).nbytes
        for plan in plans.values():
            pool = plan.workspaces
            assert pool.workspace_nbytes == widest
            with checked_out(pool) as workspace:
                assert workspace.nbytes == widest
        assert plan.workspaces.shared.created == 1
        # ``occupied`` is what four per-width arena sets would hold, and at
        # 16 rows benchmarks/e2e's nn.plan.arena_mb (the sum of the four
        # plans' workspace_nbytes) was that figure before the plans shared
        # one pool; ``dedicated`` is what it would be if every buffer had
        # bytes of its own.  A conv's one-image staging buffer fits in dead
        # scratch bytes at 16 rows; at 1 row it is as large as the columns
        # it stages.  A pooled block's channel-last pooled tile is a quarter
        # of its GEMM tile, and never meets the peak (a conv's columns and
        # GEMM tile, or columns and stage), so it sets no byte of
        # ``occupied``.
        if plan.dtype == np.float64:
            pinned = {1: (1_266_304, 2_423_104, 502_080), 16: (12_527_616, 24_798_784, 4_820_736)}
        else:
            pinned = {1: (633_344, 1_211_552, 251_072), 16: (6_263_808, 12_399_392, 2_410_368)}
        assert (occupied, dedicated, widest) == pinned[rows]

    def test_an_identical_plan_built_again_computes_no_placement(self, net):
        widths = [s.name for s in net.width_spec.lower_family()]
        compile_width_plans(net, widths, batch_rows=16)
        before = buffer_layouts.cache_info(), buffer_layout.cache_info()
        compile_width_plans(net, widths, batch_rows=16)
        after = buffer_layouts.cache_info(), buffer_layout.cache_info()
        assert [a.misses for a in after] == [b.misses for b in before]
        assert after[0].hits == before[0].hits + 1  # the set, placed once for all widths

    def test_a_pool_places_its_set_at_construction(self, net):
        """So a pool built with no arena set before a fork (a process-backend
        frontend's) leaves each forked worker no placement to compute."""
        before = buffer_layouts.cache_info()
        (plan,) = compile_width_plans(net, ["lower50"], batch_rows=7, workspaces=0).values()
        built = buffer_layouts.cache_info(), buffer_layout.cache_info()
        assert built[0].hits + built[0].misses == before.hits + before.misses + 1
        plan.run(batch(7))  # the first checkout computes no placement
        assert (buffer_layouts.cache_info(), buffer_layout.cache_info()) == built
