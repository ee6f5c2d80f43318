"""Integration tests: live failover through the real protocol.

The paper's headline reliability demo, end to end: a Fluid system serving a
stream in HT/HA mode keeps serving through a mid-stream worker crash, while
a Static system goes dark.
"""

import threading

import numpy as np
import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.comm.transport import InProcChannel
from repro.device.emulated import CrashCounter, EmulatedDevice
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.master import MasterRuntime
from repro.distributed.throughput import SystemThroughputModel
from repro.distributed.worker import WorkerServer
from repro.engine.modes import ExecutionMode
from repro.models.zoo import build_model
from repro.runtime.live import LiveSystem
from repro.runtime.policy import AdaptationPolicy
from repro.utils.rng import make_rng


def make_live(family: str, target: str, crash_after=None):
    """A live system over an in-proc channel, worker optionally scripted to die."""
    live, thread, _ = make_live_server(family, target, crash_after)
    return live, thread


def make_live_server(family: str, target: str, crash_after=None, *, compiled=False):
    """``make_live``, plus the ``WorkerServer`` the master talks to."""
    model = build_model(family, rng=make_rng(0))
    net = model.net
    chan = InProcChannel()
    counter = None if crash_after is None else CrashCounter(crash_after)
    worker_device = EmulatedDevice(jetson_nx_worker(), net, crash_counter=counter)
    server = WorkerServer(worker_device, chan.b, partition_split=net.width_spec.split)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    master = MasterRuntime(
        EmulatedDevice(jetson_nx_master(), net),
        chan.a,
        partition_split=net.width_spec.split,
        compiled=compiled,
    )
    tm = SystemThroughputModel(
        net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )
    policy = AdaptationPolicy(model, tm, target=target)
    return LiveSystem(master, policy), thread, server


@pytest.fixture
def batches(rng):
    return [rng.standard_normal((4, 1, 28, 28)) for _ in range(6)]


class TestHealthyStream:
    def test_fluid_ht_serves_everything(self, batches):
        live, thread = make_live("fluid", "throughput")
        log = live.serve_stream(batches)
        assert log.served_count() == len(batches)
        assert all(m is ExecutionMode.HIGH_THROUGHPUT for m in log.modes())
        live.master.engine.shutdown()
        thread.join(timeout=5.0)

    def test_fluid_ha_serves_everything(self, batches):
        live, thread = make_live("fluid", "accuracy")
        log = live.serve_stream(batches)
        assert log.served_count() == len(batches)
        assert all(m is ExecutionMode.HIGH_ACCURACY for m in log.modes())
        live.master.engine.shutdown()
        thread.join(timeout=5.0)


class TestHtFewerRowsThanDevices:
    @pytest.mark.parametrize("rows", [1, 3])
    def test_serve_batch_matches_eager(self, rng, rows):
        """HT splits a request across devices; with 1 row on 2 devices the
        first chunk is empty and must get no stream call (it used to reach
        Flatten as ``x[0:0]`` and raise out of ``serve_batch``)."""
        live, thread = make_live("fluid", "throughput")
        x = rng.standard_normal((rows, 1, 28, 28))
        served = live.serve_batch(0, x)
        assert served.mode is ExecutionMode.HIGH_THROUGHPUT
        assert not served.failed_over
        net = live.policy.model.net
        master, worker = live.plan.assignments
        expected = []
        for assignment, part in ((master, x[: rows // 2]), (worker, x[rows // 2 :])):
            if len(part):
                view = net.view(net.width_spec.find(assignment.subnet))
                view.train(False)
                expected.append(view(part))
        assert served.logits.shape == (rows, 10)
        np.testing.assert_allclose(served.logits, np.concatenate(expected), atol=1e-5)
        live.master.engine.shutdown()
        thread.join(timeout=5.0)


class TestMidStreamFailover:
    def test_fluid_fails_over_and_keeps_serving(self, batches):
        """Worker dies after two full HA batches (4 protocol messages each);
        the stream continues in SOLO mode with one transparent retry."""
        live, thread = make_live("fluid", "accuracy", crash_after=8)
        log = live.serve_stream(batches)
        assert log.served_count() == len(batches)  # nothing dropped
        modes = log.modes()
        assert modes[0] is ExecutionMode.HIGH_ACCURACY
        assert modes[-1] is ExecutionMode.SOLO
        assert len(log.failover_points()) == 1
        thread.join(timeout=5.0)

    def test_static_goes_dark(self, batches):
        live, thread = make_live("static", "accuracy", crash_after=8)
        log = live.serve_stream(batches)
        modes = log.modes()
        assert modes[0] is ExecutionMode.HIGH_ACCURACY
        assert modes[-1] is ExecutionMode.FAILED
        # Batches after the crash are unserved.
        assert log.served_count() < len(batches)
        thread.join(timeout=5.0)

    def test_failover_preserves_correctness(self, rng):
        """Logits served after failover match the standalone lower50 model."""
        live, thread = make_live("fluid", "accuracy", crash_after=0)
        x = rng.standard_normal((4, 1, 28, 28))
        served = live.serve_batch(0, x)
        assert served.mode is ExecutionMode.SOLO
        net = live.policy.model.net
        view = net.view(net.width_spec.find("lower50"))
        view.train(False)
        np.testing.assert_allclose(served.logits, view(x), atol=1e-9)
        thread.join(timeout=5.0)


class TestHeartbeatPath:
    def test_heartbeat_triggers_replan(self, batches):
        live, thread = make_live("fluid", "accuracy")
        assert live.heartbeat()
        live.master.crash_worker()
        assert not live.heartbeat()
        assert live.plan.mode is ExecutionMode.SOLO
        log = live.serve_stream(batches[:2])
        assert log.served_count() == 2
        thread.join(timeout=5.0)



class TestWorkerErrorIsNotDeath:
    """A live worker that answers ERROR has failed one batch, not died: the
    batch raises the worker's own exception, and the plan stays."""

    @pytest.mark.parametrize(
        "target,method",
        [("throughput", "run_subnet"), ("accuracy", "partition_round")],
        ids=["ht", "compiled-ha"],
    )
    def test_the_batch_raises_and_the_next_is_served_in_the_same_mode(
        self, batches, target, method
    ):
        live, thread, server = make_live_server("fluid", target, compiled=True)
        mode = live.plan.mode
        serve = getattr(server.endpoint, method)
        raised = []

        def raise_once(*args, **kwargs):
            if not raised:
                raised.append(method)
                raise ValueError("worker-side bug")
            return serve(*args, **kwargs)

        setattr(server.endpoint, method, raise_once)
        try:
            with pytest.raises(ValueError, match="worker-side bug"):
                live.serve_batch(0, batches[0])
            assert raised == [method]
            assert live.plan.mode is mode
            assert live.heartbeat()
            served = live.serve_batch(1, batches[1])
        finally:
            live.master.engine.shutdown()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert served.mode is mode
        assert not served.failed_over

        # Bitwise what a system whose worker never failed answers.
        healthy, healthy_thread, _ = make_live_server("fluid", target, compiled=True)
        try:
            expected = healthy.serve_batch(1, batches[1])
        finally:
            healthy.master.engine.shutdown()
            healthy_thread.join(timeout=5.0)
        assert not healthy_thread.is_alive()
        np.testing.assert_array_equal(served.logits, expected.logits)
