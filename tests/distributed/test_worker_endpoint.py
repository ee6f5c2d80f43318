"""The worker is a codec around one ``LocalEndpoint``.

Two facts the old hand-written worker handlers broke: a device's clock must
read the same whether the master reaches it in-process or behind the wire,
and a request the worker cannot serve must come back as an ERROR — not kill
the serve thread and leave the master waiting out its request timeout.  And
one the shared endpoint would otherwise have carried over the wire: its
cost-table cache (like the engine's graph cache) must hit when a plan names
its subnet.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.comm import InProcChannel, Message, MessageKind
from repro.device import EmulatedDevice, jetson_nx_master, jetson_nx_worker
from repro.distributed import MASTER, WORKER, MasterRuntime, WorkerServer, ha_plan
from repro.engine import BlockPartition, ExecutionEngine
from repro.engine.endpoints import LocalEndpoint, TransportEndpoint
from repro.utils import make_rng

SPLIT = 8
SPEC = "lower100"


def _serve(net, chan):
    """A worker-profile device served on ``chan.b``; returns (device, thread)."""
    device = EmulatedDevice(jetson_nx_worker(), net)
    server = WorkerServer(device, chan.b, partition_split=SPLIT)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return device, thread


def _batch(rows: int) -> np.ndarray:
    return make_rng(42).standard_normal((rows, 1, 28, 28))


class TestDeviceClockIsTheSameBehindTheWire:
    @pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled"])
    @pytest.mark.parametrize("rows", [1, 4, 16])
    def test_busy_time_and_requests_served_match_local_endpoint(
        self, paper_net, rows, compiled
    ):
        """The worker profile serving the upper block of one HA batch ends
        with the same busy clock and request count on either side of the wire."""
        x = _batch(rows)
        spec = paper_net.width_spec.find(SPEC)

        chan = InProcChannel()
        remote_device, thread = _serve(paper_net, chan)
        master = MasterRuntime(
            EmulatedDevice(jetson_nx_master(), paper_net),
            chan.a,
            partition_split=SPLIT,
            compiled=compiled,
        )
        try:
            out_wire = master.run_ha(spec, x)
        finally:
            master.engine.shutdown()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

        local_device = EmulatedDevice(jetson_nx_worker(), paper_net)
        engine = ExecutionEngine(
            {
                MASTER: LocalEndpoint(MASTER, EmulatedDevice(jetson_nx_master(), paper_net)),
                WORKER: LocalEndpoint(WORKER, local_device),
            },
            paper_net.width_spec,
            partition=BlockPartition.two_way(SPLIT, paper_net.width_spec.max_width),
            compiled=compiled,
        )
        try:
            out_local = engine.execute(ha_plan(SPEC), x).logits
        finally:
            engine.shutdown()

        np.testing.assert_allclose(out_wire, out_local, atol=1e-4)  # float32 wire
        assert local_device.busy_time_s > 0
        assert remote_device.busy_time_s == pytest.approx(
            local_device.busy_time_s, rel=1e-12
        )
        assert remote_device.requests_served == local_device.requests_served == 1


class TestPlansResolvedByNameHitTheCaches:
    @pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled"])
    def test_repeated_batches_keep_one_graph_and_one_cost_table(self, paper_net, compiled):
        """``execute`` resolves the plan's subnet by name, and ``WidthSpec.find``
        used to build a fresh spec object per lookup: caches keyed on
        ``id(spec)`` missed on every batch (recompiling the graph, recomputing
        the cost table) and grew by an entry per request."""
        engine = ExecutionEngine(
            {
                name: LocalEndpoint(name, EmulatedDevice(profile, paper_net))
                for name, profile in ((MASTER, jetson_nx_master()), (WORKER, jetson_nx_worker()))
            },
            paper_net.width_spec,
            partition=BlockPartition.two_way(SPLIT, paper_net.width_spec.max_width),
            compiled=compiled,
        )
        try:
            first = engine.execute(ha_plan(SPEC), _batch(2)).logits.copy()
            for _ in range(4):
                np.testing.assert_array_equal(
                    engine.execute(ha_plan(SPEC), _batch(2)).logits, first
                )
            assert len(engine._graph_cache) == 1
            for endpoint in engine.endpoints.values():
                assert len(endpoint._partition_cost_cache) == 1
        finally:
            engine.shutdown()


class TestUnservableRequestGetsAnErrorReply:
    def test_bad_partition_rounds_answer_error_and_the_loop_keeps_serving(self, paper_net):
        spec = paper_net.width_spec.find(SPEC)
        x = _batch(2)
        chan = InProcChannel()
        _, thread = _serve(paper_net, chan)

        def ask(fields) -> Message:
            chan.a.send(
                Message(MessageKind.PARTITION_ROUND, fields={"spec": SPEC, **fields})
            )
            return chan.a.recv(timeout=1.0)  # a dead serve thread times out here

        # "layer": null — a TypeError inside the handler.
        reply = ask({"op": "layer", "layer": None})
        assert reply.kind == MessageKind.ERROR
        assert "TypeError" in reply.fields["reason"]
        assert reply.fields["error"] == "TypeError"
        assert reply.fields["detail"] in reply.fields["reason"]

        # A valid layer-0 round, then a round the program does not have.
        probe = TransportEndpoint(WORKER, chan.a)
        probe.begin_partition_plan(spec, (0, SPLIT, 16), 1, x.shape[0])
        assert "half" in probe.partition_round(spec, 0, x=x).arrays
        reply = ask({"op": "layer", "layer": 99, "peers": []})
        assert reply.kind == MessageKind.ERROR
        assert "IndexError" in reply.fields["reason"]

        # The failed request dropped the open session: continuing it is an
        # ordering error, not a round over stale state.
        reply = ask({"op": "fc"})
        assert reply.kind == MessageKind.ERROR
        assert thread.is_alive()

        # The next valid HA batch on the same connection is bitwise correct.
        master = MasterRuntime(
            EmulatedDevice(jetson_nx_master(), paper_net),
            chan.a,
            partition_split=SPLIT,
            compiled=True,
        )
        try:
            out = master.run_ha(spec, x)
        finally:
            master.engine.shutdown()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

        fresh = InProcChannel()
        _, fresh_thread = _serve(paper_net, fresh)
        reference = MasterRuntime(
            EmulatedDevice(jetson_nx_master(), paper_net),
            fresh.a,
            partition_split=SPLIT,
            compiled=True,
        )
        try:
            np.testing.assert_array_equal(out, reference.run_ha(spec, x))
        finally:
            reference.engine.shutdown()
            fresh_thread.join(timeout=5.0)
