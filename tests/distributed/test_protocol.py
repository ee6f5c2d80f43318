"""Integration tests: master/worker protocol over the in-process channel."""

import threading

import numpy as np
import pytest

from repro.comm.message import Message, MessageKind
from repro.comm.transport import InProcChannel
from repro.device.emulated import CrashCounter, EmulatedDevice
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.master import MasterRuntime
from repro.distributed.worker import WorkerServer
from repro.engine.endpoints import EndpointUnavailable
from repro.engine.modes import MASTER, WORKER
from repro.engine.plan import ha_plan, ht_plan, solo_plan


def _solo(master, device, spec, x):
    return master.engine.execute(solo_plan(device, spec.name), x).logits


def _ha(master, spec, x):
    return master.engine.execute(ha_plan(spec.name), x).logits


@pytest.fixture
def protocol_pair(paper_net):
    """A served worker and a connected master over an in-proc channel."""
    chan = InProcChannel()
    worker_device = EmulatedDevice(jetson_nx_worker(), paper_net)
    server = WorkerServer(worker_device, chan.b, partition_split=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    master_device = EmulatedDevice(jetson_nx_master(), paper_net)
    master = MasterRuntime(master_device, chan.a, partition_split=8)
    yield master, worker_device
    master.engine.shutdown()
    thread.join(timeout=5.0)


class TestHeartbeat:
    def test_ping(self, protocol_pair):
        master, _ = protocol_pair
        assert master.ping_worker()

    def test_ping_after_shutdown_fails(self, protocol_pair):
        master, _ = protocol_pair
        master.engine.shutdown()
        assert not master.ping_worker()


class TestRemoteExecution:
    def test_run_remote_matches_local_view(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.find("upper50")
        x = rng.standard_normal((3, 1, 28, 28))
        remote = _solo(master, WORKER, spec, x)
        view = worker_device.net.view(spec)
        view.train(False)
        local = view(x.astype(np.float32).astype(np.float64))
        np.testing.assert_allclose(remote, local, atol=1e-5)


class TestHaProtocol:
    def test_ha_matches_monolithic(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.full()
        x = rng.standard_normal((4, 1, 28, 28))
        out = _ha(master, spec, x)
        view = worker_device.net.view(spec)
        view.train(False)
        reference = view(x)
        # float32 wire casts dominate the tolerance.
        np.testing.assert_allclose(out, reference, atol=1e-4)

    def test_ha_on_75_percent_model(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.find("lower75")
        x = rng.standard_normal((2, 1, 28, 28))
        out = _ha(master, spec, x)
        view = worker_device.net.view(spec)
        view.train(False)
        np.testing.assert_allclose(out, view(x), atol=1e-4)

    def test_ha_rejects_upper_spec(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.find("upper50")
        with pytest.raises(ValueError):
            _ha(master, spec, rng.standard_normal((1, 1, 28, 28)))

    def test_consecutive_ha_batches(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.full()
        view = worker_device.net.view(spec)
        view.train(False)
        for _ in range(3):
            x = rng.standard_normal((2, 1, 28, 28))
            np.testing.assert_allclose(_ha(master, spec, x), view(x), atol=1e-4)


class TestHtProtocol:
    def test_parallel_streams(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        ws = worker_device.net.width_spec
        x_m = rng.standard_normal((3, 1, 28, 28))
        x_w = rng.standard_normal((3, 1, 28, 28))
        streams = master.engine.execute(
            ht_plan("lower50", "upper50"), streams={MASTER: x_m, WORKER: x_w}
        ).streams
        logits_m, logits_w = streams[MASTER], streams[WORKER]
        assert logits_m.shape == (3, 10)
        assert logits_w.shape == (3, 10)


class TestFailureHandling:
    def test_crash_mid_stream_raises_worker_unavailable(self, paper_net, rng):
        chan = InProcChannel()
        worker_device = EmulatedDevice(
            jetson_nx_worker(), paper_net, crash_counter=CrashCounter(2)
        )
        server = WorkerServer(worker_device, chan.b, partition_split=8)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        master = MasterRuntime(
            EmulatedDevice(jetson_nx_master(), paper_net),
            chan.a,
            partition_split=8,
        )
        spec = paper_net.width_spec.find("upper50")
        x = rng.standard_normal((1, 1, 28, 28))
        _solo(master, WORKER, spec, x)
        _solo(master, WORKER, spec, x)
        with pytest.raises(EndpointUnavailable):
            _solo(master, WORKER, spec, x)
        thread.join(timeout=5.0)

    def test_crash_command_kills_worker(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        master.crash_worker()
        spec = worker_device.net.width_spec.find("upper50")
        with pytest.raises(EndpointUnavailable):
            _solo(master, WORKER, spec, rng.standard_normal((1, 1, 28, 28)))

    def test_local_execution_survives_worker_crash(self, protocol_pair, rng):
        """The Fluid failover: worker dies, master keeps serving lower50."""
        master, worker_device = protocol_pair
        master.crash_worker()
        spec = worker_device.net.width_spec.find("lower50")
        logits = _solo(master, MASTER, spec, rng.standard_normal((2, 1, 28, 28)))
        assert logits.shape == (2, 10)
