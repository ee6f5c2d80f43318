"""Integration tests: master/worker protocol over the in-process channel."""

import threading

import numpy as np
import pytest

from repro.comm import InProcChannel, Message, MessageKind
from repro.device import CrashCounter, EmulatedDevice, jetson_nx_master, jetson_nx_worker
from repro.distributed import MasterRuntime, WorkerServer
from repro.engine.endpoints import EndpointUnavailable


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
    master.shutdown_worker()
    thread.join(timeout=5.0)


class TestHeartbeat:
    def test_ping(self, protocol_pair):
        master, _ = protocol_pair
        assert master.ping_worker()

    def test_ping_after_shutdown_fails(self, protocol_pair):
        master, _ = protocol_pair
        master.shutdown_worker()
        assert not master.ping_worker()


class TestRemoteExecution:
    def test_run_remote_matches_local_view(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.find("upper50")
        x = rng.standard_normal((3, 1, 28, 28))
        remote = master.run_remote(spec, x)
        view = worker_device.net.view(spec)
        view.train(False)
        local = view(x.astype(np.float32).astype(np.float64))
        np.testing.assert_allclose(remote, local, atol=1e-5)

    def test_worker_accounts_compute_time(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.find("upper50")
        master.run_remote(spec, rng.standard_normal((2, 1, 28, 28)))
        assert worker_device.busy_time_s > 0
        assert master.ledger.compute_s > 0
        assert master.ledger.comm_s > 0


class TestHaProtocol:
    def test_ha_matches_monolithic(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.full()
        x = rng.standard_normal((4, 1, 28, 28))
        out = master.run_ha(spec, x)
        view = worker_device.net.view(spec)
        view.train(False)
        reference = view(x)
        # float32 wire casts dominate the tolerance.
        np.testing.assert_allclose(out, reference, atol=1e-4)

    def test_ha_on_75_percent_model(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.find("lower75")
        x = rng.standard_normal((2, 1, 28, 28))
        out = master.run_ha(spec, x)
        view = worker_device.net.view(spec)
        view.train(False)
        np.testing.assert_allclose(out, view(x), atol=1e-4)

    def test_ha_rejects_upper_spec(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.find("upper50")
        with pytest.raises(ValueError):
            master.run_ha(spec, rng.standard_normal((1, 1, 28, 28)))

    def test_consecutive_ha_batches(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        spec = worker_device.net.width_spec.full()
        view = worker_device.net.view(spec)
        view.train(False)
        for _ in range(3):
            x = rng.standard_normal((2, 1, 28, 28))
            np.testing.assert_allclose(master.run_ha(spec, x), view(x), atol=1e-4)


class TestHtProtocol:
    def test_parallel_streams(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        ws = worker_device.net.width_spec
        x_m = rng.standard_normal((3, 1, 28, 28))
        x_w = rng.standard_normal((3, 1, 28, 28))
        logits_m, logits_w = master.run_ht(ws.find("lower50"), ws.find("upper50"), x_m, x_w)
        assert logits_m.shape == (3, 10)
        assert logits_w.shape == (3, 10)
        assert master.ledger.images == 6  # both parallel streams' images count


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
        master.run_remote(spec, x)
        master.run_remote(spec, x)
        with pytest.raises(EndpointUnavailable):
            master.run_remote(spec, x)
        thread.join(timeout=5.0)

    def test_crash_command_kills_worker(self, protocol_pair, rng):
        master, worker_device = protocol_pair
        master.crash_worker()
        spec = worker_device.net.width_spec.find("upper50")
        with pytest.raises(EndpointUnavailable):
            master.run_remote(spec, rng.standard_normal((1, 1, 28, 28)))

    def test_local_execution_survives_worker_crash(self, protocol_pair, rng):
        """The Fluid failover: worker dies, master keeps serving lower50."""
        master, worker_device = protocol_pair
        master.crash_worker()
        spec = worker_device.net.width_spec.find("lower50")
        logits = master.run_local(spec, rng.standard_normal((2, 1, 28, 28)))
        assert logits.shape == (2, 10)
