"""Compiled distributed path: bitwise parity, delta halos, and overlap.

The compiled HA path (each device's :class:`~repro.nn.plan.InferencePlan`
over its channel block) must be bitwise
identical to the eager per-round kernels at every certified width, under
both dtype policies, over in-process endpoints AND the real wire protocol —
while exchanging strictly fewer bytes (delta halos) and allocating nothing
in steady state (workspace arenas + memoised plans).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.comm.transport import InProcChannel
from repro.device.emulated import CrashCounter, EmulatedDevice
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.cluster import LocalCluster
from repro.distributed.master import MasterRuntime
from repro.distributed.worker import WorkerServer
from repro.engine.endpoints import Endpoint, EndpointReply, EndpointUnavailable, LocalEndpoint
from repro.engine.engine import ExecutionEngine
from repro.engine.graph import BlockPartition, ExecutionGraph, PartitionLayerOp
from repro.engine.modes import MASTER, WORKER, ExecutionMode
from repro.engine.partitioned import partitioned_forward_reference
from repro.engine.plan import ha_plan, ht_plan, streams_plan
from repro.nn.context import ForwardContext
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.utils.dtypes import DtypePolicy, dtype_policy, set_dtype_policy
from repro.utils.rng import make_rng
from tests.engine.blocks import block_engine, ha_over_all_blocks

SPLIT = 8
SEED = 0

POLICIES = {
    "default": DtypePolicy(),
    "fast_inference": DtypePolicy.fast_inference(),
}


def _net() -> SlimmableConvNet:
    return SlimmableConvNet(paper_width_spec(), rng=make_rng(SEED))


def _batch(n: int = 5) -> np.ndarray:
    return make_rng(42).standard_normal((n, 1, 28, 28))


class _InProcMaster:
    """MasterRuntime + served WorkerServer over an in-process channel."""

    def __init__(self, net: SlimmableConvNet, *, compiled: bool) -> None:
        chan = InProcChannel()
        self.worker_device = EmulatedDevice(jetson_nx_worker(), net)
        self._server = WorkerServer(self.worker_device, chan.b, partition_split=SPLIT)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.master_device = EmulatedDevice(jetson_nx_master(), net)
        self.runtime = MasterRuntime(
            self.master_device, chan.a, partition_split=SPLIT, compiled=compiled
        )

    def __enter__(self) -> MasterRuntime:
        return self.runtime

    def __exit__(self, *exc) -> None:
        self.runtime.engine.shutdown()
        self._thread.join(timeout=5.0)


def _local_engine(net: SlimmableConvNet, *, compiled: bool) -> ExecutionEngine:
    """The two devices as in-process endpoints ``dev0`` / ``dev1``."""
    engine, _ = block_engine(
        net,
        [jetson_nx_master(), jetson_nx_worker()],
        BlockPartition.two_way(SPLIT, net.width_spec.max_width),
        compiled=compiled,
    )
    return engine


def _run_ha(engine: ExecutionEngine, x: np.ndarray) -> np.ndarray:
    """The combined model over every block of an in-process engine."""
    return engine.execute(ha_over_all_blocks(engine), x).logits


def _master_ha(master: MasterRuntime, spec, x: np.ndarray) -> np.ndarray:
    return master.engine.execute(ha_plan(spec.name), x).logits


class TestCompiledBitwiseParity:
    """Compiled == eager == single-process reference, bit for bit."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("spec_name", ["lower75", "lower100"])
    def test_wire_protocol_parity(self, spec_name, policy_name):
        """LocalEndpoint + TransportEndpoint over InProcChannel, every
        certified HA width, both dtype policies."""
        # Process-wide: the worker's server thread must see the policy too.
        old = set_dtype_policy(POLICIES[policy_name])
        try:
            net = _net()
            spec = net.width_spec.find(spec_name)
            x = _batch()
            with _InProcMaster(net, compiled=False) as eager:
                out_eager = _master_ha(eager, spec, x)
                eager_bytes = list(eager.engine.last_exchange_bytes)
            with _InProcMaster(net, compiled=True) as compiled:
                out_compiled = _master_ha(compiled, spec, x)
                np.testing.assert_array_equal(out_compiled, out_eager)
                # The single-process reference never round-trips the wire
                # dtype, so it is bitwise only when compute == wire dtype.
                reference, _ = partitioned_forward_reference(net, spec, SPLIT, x)
                if POLICIES[policy_name].inference == POLICIES[policy_name].wire:
                    np.testing.assert_array_equal(out_eager, reference)
                else:
                    np.testing.assert_allclose(out_eager, reference, atol=1e-5)
                assert len(compiled.engine.last_exchange_bytes) == len(eager_bytes)
        finally:
            set_dtype_policy(old)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_local_endpoints_parity(self, policy_name):
        """Pure LocalEndpoint fan-out (an in-process engine), both policies."""
        with dtype_policy(POLICIES[policy_name]):
            net = _net()
            x = _batch()
            eager = _local_engine(net, compiled=False)
            compiled = _local_engine(net, compiled=True)
            try:
                out_eager = _run_ha(eager, x)
                out_compiled = _run_ha(compiled, x)
                np.testing.assert_array_equal(out_compiled, out_eager)
                # No wire cast on local endpoints: the single-process
                # reference must agree bit for bit.
                reference, _ = partitioned_forward_reference(
                    net, net.width_spec.full(), SPLIT, x
                )
                np.testing.assert_array_equal(out_eager, reference)
            finally:
                eager.shutdown()
                compiled.shutdown()

    def test_repeat_executes_stay_bitwise_stable(self):
        """Arena reuse must not leak state between batches."""
        net = _net()
        engine = _local_engine(net, compiled=True)
        try:
            x = _batch()
            first = _run_ha(engine, x)
            for _ in range(3):
                np.testing.assert_array_equal(_run_ha(engine, x), first)
            # A different batch through the same arenas, then the first again.
            _run_ha(engine, make_rng(7).standard_normal((5, 1, 28, 28)))
            np.testing.assert_array_equal(_run_ha(engine, x), first)
        finally:
            engine.shutdown()

    @pytest.mark.slow
    def test_tcp_cluster_parity(self):
        """Compiled == eager over a real subprocess worker on localhost TCP."""
        net = _net()
        x = _batch(3)
        spec = net.width_spec.full()
        with LocalCluster(net, compiled=False) as eager:
            out_eager = _master_ha(eager.master, spec, x)
        with LocalCluster(net, compiled=True) as compiled:
            out_compiled = _master_ha(compiled.master, spec, x)
        np.testing.assert_array_equal(out_compiled, out_eager)


class TestDeltaHaloExchange:
    """The compiled path ships strictly fewer activation bytes."""

    def test_exchange_bytes_reduced(self):
        net = _net()
        spec = net.width_spec.find("lower100")
        x = _batch()
        with _InProcMaster(net, compiled=False) as eager:
            _master_ha(eager, spec, x)
            eager_bytes = list(eager.engine.last_exchange_bytes)
        with _InProcMaster(net, compiled=True) as compiled:
            _master_ha(compiled, spec, x)
            compiled_bytes = list(compiled.engine.last_exchange_bytes)
        assert len(compiled_bytes) == len(eager_bytes)
        # Round 0 ships the input either way; every later round drops the
        # full-activation broadcast, and the final conv round ships no
        # halves at all (the fc round carries only the partial logits).
        assert compiled_bytes[0] <= eager_bytes[0]
        for c, e in zip(compiled_bytes[1:], eager_bytes[1:]):
            assert c < e
        assert sum(compiled_bytes) < 0.7 * sum(eager_bytes)
        assert compiled_bytes[-1] == 2 * x.shape[0] * 10 * np.dtype("float32").itemsize

    def test_exact_bytes_per_round_at_batch_one(self):
        """The compiled two-device HA exchange for one image, byte for byte
        (float32 wire): input broadcast, two halo rounds, partial logits.
        The sum is what ``benchmarks/e2e`` reports as
        ``engine.exchange_bytes_per_img``."""
        net = _net()
        eager = _local_engine(net, compiled=False)
        compiled = _local_engine(net, compiled=True)
        try:
            _run_ha(eager, _batch(1))
            _run_ha(compiled, _batch(1))
            assert list(eager.last_exchange_bytes) == [18816, 28224, 9408, 6352]
            assert list(compiled.last_exchange_bytes) == [18816, 15680, 3136, 80]
            assert sum(compiled.last_exchange_bytes) == 37712
        finally:
            eager.shutdown()
            compiled.shutdown()

    def test_accounting_uses_wire_itemsize(self):
        """Exchange bytes follow the policy wire dtype, not hardcoded f32."""
        net = _net()
        x = _batch()

        def total(wire: str) -> int:
            with dtype_policy(wire=wire):
                engine = _local_engine(net, compiled=True)
                try:
                    _run_ha(engine, x)
                    return sum(engine.last_exchange_bytes)
                finally:
                    engine.shutdown()

        assert total("float64") == 2 * total("float32")


class TestZeroSteadyStateAllocation:
    """After warmup, no new plans and no new arenas — only checkouts."""

    def test_plans_and_arenas_are_reused(self):
        net = _net()
        engine = _local_engine(net, compiled=True)
        try:
            x = _batch()
            for _ in range(2):
                _run_ha(engine, x)
            endpoints = list(engine.endpoints.values())
            plans = [ep._plan for ep in endpoints]
            compiled_counts = [len(ep._plans) for ep in endpoints]
            created = [plan.workspaces.created for plan in plans]
            checkouts = [plan.workspaces.checkouts for plan in plans]
            for _ in range(10):
                _run_ha(engine, x)
            for ep, n in zip(endpoints, compiled_counts):
                assert len(ep._plans) == n  # no recompilation
            for plan, c, k in zip(plans, created, checkouts):
                assert plan.workspaces.created == c  # no new arenas
                assert plan.workspaces.checkouts == k + 10
        finally:
            engine.shutdown()

    def test_one_plan_per_device_serves_every_batch_size(self):
        """A device keeps one partition plan per (spec, blocks, index): a
        smaller batch runs on it, a larger one or another inference dtype
        recompiles it in place, and every batch stays bitwise the
        single-process reference."""
        net = _net()
        spec = net.width_spec.full()
        engine = _local_engine(net, compiled=True)
        try:
            endpoints = list(engine.endpoints.values())
            for policy_name in ("default", "fast_inference"):
                with dtype_policy(POLICIES[policy_name]):
                    seen = [set() for _ in endpoints]
                    for rows in (4, 2, 3, 16, 4):
                        x = make_rng(rows).standard_normal((rows, 1, 28, 28))
                        want, _ = partitioned_forward_reference(net, spec, SPLIT, x)
                        np.testing.assert_array_equal(_run_ha(engine, x), want)
                        for ep, plans in zip(endpoints, seen):
                            plans.add(id(ep._plan))
                    dtype = POLICIES[policy_name].inference
                    # Default: the 4-row plan, then the one 16 rows outgrew it
                    # for.  Then the dtype change recompiles once, at 16 rows.
                    compiled = 2 if policy_name == "default" else 1
                    for ep, plans in zip(endpoints, seen):
                        assert len(plans) == compiled
                        (plan,) = ep._plans.values()
                        assert plan is ep._plan
                        assert plan.batch_rows == 16
                        assert plan.dtype == np.dtype(dtype)
        finally:
            engine.shutdown()


class TestLocalEndpointRoundGuards:
    """A device's side of a partitioned round, on either interpreter: one
    liveness tick per round, and only the rounds of the open program."""

    @staticmethod
    def _endpoint(net, crash_after=None):
        counter = None if crash_after is None else CrashCounter(crash_after)
        device = EmulatedDevice(jetson_nx_master(), net, crash_counter=counter)
        return LocalEndpoint("dev0", device)

    @staticmethod
    def _open(endpoint, compiled, spec, rows):
        boundaries = BlockPartition.two_way(SPLIT, spec.last_slice.stop).boundaries
        if compiled:
            endpoint.begin_partition_plan(spec, boundaries, 0, rows)
        else:
            endpoint.begin_partition(spec, boundaries, 0)

    @staticmethod
    def _round(endpoint, compiled, spec, layer, x):
        """Round ``layer`` of device 0; layer 0 carries the input."""
        if compiled:
            return endpoint.partition_round(spec, layer, x=x if layer == 0 else None)
        block = BlockPartition.two_way(SPLIT, spec.last_slice.stop).clipped_block(
            0, spec.conv_slices[0].stop
        )
        return endpoint.partition_layer(spec, layer, block, None, x, None)

    @pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled"])
    def test_a_round_before_begin_partition_is_refused(self, compiled):
        net = _net()
        endpoint = self._endpoint(net)
        with pytest.raises(RuntimeError, match="before begin_partition"):
            self._round(endpoint, compiled, net.width_spec.full(), 0, _batch(2))

    @pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled"])
    def test_a_round_of_another_spec_is_refused(self, compiled):
        net = _net()
        endpoint = self._endpoint(net)
        self._open(endpoint, compiled, net.width_spec.full(), 2)
        with pytest.raises(RuntimeError, match="before begin_partition"):
            self._round(endpoint, compiled, net.width_spec.find("lower75"), 0, _batch(2))

    @pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled"])
    def test_a_round_the_program_does_not_have_is_refused(self, compiled):
        net = _net()
        spec = net.width_spec.full()
        endpoint = self._endpoint(net)
        self._open(endpoint, compiled, spec, 2)
        # One round per conv, then the classifier round at len(conv_slices).
        for layer in (-1, len(spec.conv_slices) + 1):
            with pytest.raises(IndexError, match=f"has no round {layer}"):
                self._round(endpoint, compiled, spec, layer, _batch(2))

    def test_a_block_the_partition_does_not_have_is_refused(self):
        """A compiled block needs a lower-anchored spec and a device index
        inside the partition; neither leaves a plan or an open run behind."""
        net = _net()
        endpoint = self._endpoint(net)
        boundaries = BlockPartition.two_way(SPLIT, net.width_spec.max_width).boundaries
        with pytest.raises(ValueError, match="lower-anchored"):
            endpoint.begin_partition_plan(net.width_spec.find("upper50"), boundaries, 0, 2)
        for index in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                endpoint.begin_partition_plan(net.width_spec.full(), boundaries, index, 2)
        assert endpoint._plans == {} and endpoint._run is None

    @pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled"])
    def test_abandon_closes_the_program(self, compiled):
        net = _net()
        spec = net.width_spec.full()
        endpoint = self._endpoint(net)
        self._open(endpoint, compiled, spec, 2)
        assert "half" in self._round(endpoint, compiled, spec, 0, _batch(2)).arrays
        endpoint.abandon_partition()
        with pytest.raises(RuntimeError, match="before begin_partition"):
            self._round(endpoint, compiled, spec, 1, _batch(2))
        if compiled:
            # The abandoned batch gave its workspace back: reopening reuses it.
            self._open(endpoint, compiled, spec, 2)
            assert endpoint._plan.workspaces.created == 1
            assert endpoint._plan.workspaces.checkouts == 2

    @pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled"])
    def test_every_round_ticks_liveness_once(self, compiled):
        net = _net()
        spec = net.width_spec.full()
        endpoint = self._endpoint(net, crash_after=2)
        self._open(endpoint, compiled, spec, 2)  # opening is not a round: no tick
        for _ in range(2):
            self._round(endpoint, compiled, spec, 0, _batch(2))
        with pytest.raises(EndpointUnavailable, match="crashed mid-stream"):
            self._round(endpoint, compiled, spec, 0, _batch(2))
        assert not endpoint.available


class TestCompiledStreams:
    """Solo and High-Throughput streams run the endpoint's compiled plan."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_standalone_runs_match_the_eager_forward_bitwise(self, policy_name):
        net = _net()
        with dtype_policy(POLICIES[policy_name]):
            endpoint = LocalEndpoint("master", EmulatedDevice(jetson_nx_master(), net))
            # The HT pair and the master's solo width; 1 -> 8 -> 16 rows
            # grows each spec's one plan twice.
            for name in ("lower50", "upper50", "lower100"):
                spec = net.width_spec.find(name)
                view = net.view(spec)
                view.train(False)
                for rows in (1, 8, 16, 8):
                    x = make_rng(rows).standard_normal((rows, 1, 28, 28))
                    got = endpoint.run_subnet(spec, x).arrays["logits"]
                    want = view.forward(x, ForwardContext(recording=False))
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
                plan = endpoint._plans[(spec, None)]
                assert plan.batch_rows == 16
                assert plan.workspaces.checkouts == 2  # the 16 rows, then 8 again
            # One weight cache per endpoint: every block packed exactly once.
            assert endpoint._cache.packs == len(endpoint._cache)

    def test_an_inference_dtype_change_recompiles_the_plan(self):
        """The one recompile rule of every endpoint plan, standalone ones too."""
        net = _net()
        endpoint = LocalEndpoint("master", EmulatedDevice(jetson_nx_master(), net))
        spec = net.width_spec.find("lower50")
        x = _batch(2)
        endpoint.run_subnet(spec, x)  # compiles a float64 plan
        with dtype_policy(DtypePolicy.fast_inference()):
            got = endpoint.run_subnet(spec, x).arrays["logits"]
        assert got.dtype == np.float32
        (plan,) = endpoint._plans.values()
        assert plan.dtype == np.float32 and plan.batch_rows == 2
        assert plan.workspaces.checkouts == 1


class _BarrierEndpoint(Endpoint):
    """Blocks in run_subnet until its peer arrives — proves real overlap."""

    def __init__(self, name: str, barrier: threading.Barrier) -> None:
        self.name = name
        self.barrier = barrier
        self.calls = 0

    @property
    def available(self) -> bool:
        return True

    def ping(self, timeout: float = 1.0) -> bool:
        return True

    def run_subnet(self, spec, x) -> EndpointReply:
        self.calls += 1
        # Raises BrokenBarrierError (failing the test) if the engine were
        # to serialise the two stream calls instead of overlapping them.
        self.barrier.wait(timeout=5.0)
        return EndpointReply(arrays={"logits": np.zeros((x.shape[0], 10))})

    def shutdown(self) -> None:  # pragma: no cover - nothing to release
        pass


class TestOverlappedDispatch:
    def test_stream_calls_run_concurrently(self):
        barrier = threading.Barrier(2)
        a, b = _BarrierEndpoint("a", barrier), _BarrierEndpoint("b", barrier)
        engine = ExecutionEngine({"a": a, "b": b}, paper_width_spec())
        try:
            plan = streams_plan([("a", "lower50"), ("b", "lower50")])
            result = engine.execute(plan, _batch(4))
            assert result.logits is not None and result.logits.shape == (4, 10)
            assert a.calls == 1 and b.calls == 1
            # Both spans cover the whole round: overlap reads near 1.0
            # (a serial dispatch would deadlock at the barrier instead).
            assert engine.metrics.ewma("stream.overlap").value > 0.5
        finally:
            engine.shutdown()


class TestReportContract:
    """The keys of ``engine.report()`` that ``benchmarks/e2e`` reads."""

    def test_counters_overlap_and_exchange_bytes_after_ha_and_ht(self):
        net = _net()
        with _InProcMaster(net, compiled=True) as master:
            engine = master.engine
            engine.execute(ha_plan("lower100"), _batch(1))
            engine.execute(
                ht_plan("lower50", "upper50"),
                streams={MASTER: _batch(2), WORKER: _batch(3)},
            )
            report = engine.report()
            counters = report["counters"]
            assert counters["round.count"] == 4  # three conv rounds, one classifier round
            assert counters["stream.count"] == 1
            overlap = report["wall"]["overlap"]
            for name in ("round.overlap", "stream.overlap"):
                assert 0.0 < overlap[name]["value"] <= 1.0
            assert engine.last_exchange_bytes == [18816, 15680, 3136, 80]
            assert sum(engine.last_exchange_bytes) == 37712
            assert "emulated" not in report


class TestSpecNames:
    """A plan names its sub-networks; the engine resolves each name from its
    width family, else from its own partition."""

    def test_family_and_partition_names_resolve_and_others_do_not(self):
        net = _net()
        engine = _local_engine(net, compiled=False)
        try:
            for spec in net.width_spec.all_specs():
                assert engine.resolve_spec(spec.name) == net.width_spec.find(spec.name)
            for i in range(2):
                assert engine.resolve_spec(f"block{i}") == engine.partition.block_spec(i, 3)
            assert engine.resolve_spec("combined") == engine.partition.combined_spec(3)
            with pytest.raises(KeyError, match="no sub-network named 'lower60'"):
                engine.execute(ha_plan("lower60"), _batch(1))
        finally:
            engine.shutdown()


class TestGraphGuards:
    """Regression tests for the malformed-graph error paths."""

    def test_partitioned_graph_without_fc_round(self):
        net = _net()
        engine = _local_engine(net, compiled=False)
        try:
            graph = engine.compile(ha_over_all_blocks(engine))
            stripped = ExecutionGraph(
                mode=graph.mode,
                subnet=graph.subnet,
                rounds=tuple(
                    op for op in graph.rounds if isinstance(op, PartitionLayerOp)
                ),
            )
            with pytest.raises(ValueError, match="PartitionFcOp"):
                engine._execute_partitioned(stripped, _batch(2))
        finally:
            engine.shutdown()

    def test_stream_graph_without_streams(self):
        net = _net()
        engine = _local_engine(net, compiled=False)
        try:
            empty = ExecutionGraph(mode=ExecutionMode.HIGH_THROUGHPUT, subnet=None)
            with pytest.raises(ValueError, match="no stream ops"):
                engine._execute_streams(empty, _batch(2), None)
        finally:
            engine.shutdown()
