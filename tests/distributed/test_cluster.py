"""Integration tests: real multi-process TCP cluster on localhost."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.distributed import cluster as cluster_module
from repro.distributed.cluster import LocalCluster, WorkerProcess
from repro.engine.endpoints import EndpointUnavailable
from repro.engine.modes import MASTER, WORKER
from repro.engine.plan import ha_plan, solo_plan
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def cluster_net():
    return SlimmableConvNet(paper_width_spec(), rng=make_rng(21))


class TestLocalCluster:
    def test_remote_subnet_inference(self, cluster_net):
        rng = make_rng(0)
        with LocalCluster(cluster_net) as cluster:
            assert cluster.master.ping_worker()
            spec = cluster_net.width_spec.find("upper50")
            x = rng.standard_normal((2, 1, 28, 28))
            remote = cluster.master.engine.execute(solo_plan(WORKER, spec.name), x).logits
            view = cluster_net.view(spec)
            view.train(False)
            local = view(x.astype(np.float32).astype(np.float64))
            np.testing.assert_allclose(remote, local, atol=1e-5)

    def test_ha_over_real_tcp(self, cluster_net):
        rng = make_rng(1)
        with LocalCluster(cluster_net) as cluster:
            spec = cluster_net.width_spec.full()
            x = rng.standard_normal((3, 1, 28, 28))
            out = cluster.master.engine.execute(ha_plan(spec.name), x).logits
            view = cluster_net.view(spec)
            view.train(False)
            np.testing.assert_allclose(out, view(x), atol=1e-4)

    def test_power_failure_and_failover(self, cluster_net):
        """Kill the worker process mid-session; master detects the death and
        continues on its own certified sub-network — the paper's headline
        reliability scenario, on a real process boundary."""
        rng = make_rng(2)
        with LocalCluster(cluster_net) as cluster:
            spec = cluster_net.width_spec.find("upper50")
            x = rng.standard_normal((1, 1, 28, 28))
            cluster.master.engine.execute(solo_plan(WORKER, spec.name), x).logits  # worker is alive and serving

            cluster.kill_worker()  # power outage

            with pytest.raises(EndpointUnavailable):
                cluster.master.engine.execute(solo_plan(WORKER, spec.name), x).logits
            assert not cluster.master.ping_worker()

            # Failover: master continues standalone.
            logits = cluster.master.engine.execute(solo_plan(MASTER, "lower50"), x).logits
            assert logits.shape == (1, 10)



def _dispatch_threads():
    return {t for t in threading.enumerate() if t.name.startswith("engine-dispatch-")}


def _spawn_instead(monkeypatch, code: str):
    """Make the cluster spawn ``python -c code`` in place of the worker;
    returns the ``(worker command, process)`` pairs it spawned."""
    spawned = []
    popen = subprocess.Popen

    def spawn(cmd, **kwargs):
        process = popen([sys.executable, "-c", code], **kwargs)
        spawned.append((cmd, process))
        return process

    monkeypatch.setattr(subprocess, "Popen", spawn)
    return spawned


#: A child that never announces a port; SIGALRM ends it after 5 s at the latest.
SILENT = "import signal; signal.alarm(5); signal.pause()"
#: A child that announces a port nobody listens on, then waits the same way.
ANNOUNCES = "import signal; print('READY 1', flush=True); signal.alarm(5); signal.pause()"


class TestStartupAndTeardown:
    def test_a_silent_worker_is_killed_at_the_deadline(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "READY_TIMEOUT_S", 0.5)
        spawned = _spawn_instead(monkeypatch, SILENT)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="failed to start"):
            WorkerProcess("weights.npz", split=8, lower_widths=(4, 8, 12, 16), max_width=16, num_convs=3)
        assert time.monotonic() - started < 3.0
        ((_, process),) = spawned
        assert process.returncode is not None  # killed and reaped

    def test_a_failed_connect_stops_the_worker_and_removes_its_directory(
        self, monkeypatch, cluster_net
    ):
        spawned = _spawn_instead(monkeypatch, ANNOUNCES)

        def refuse(port):
            raise RuntimeError(f"could not connect to worker on port {port}")

        monkeypatch.setattr(LocalCluster, "_connect_with_retry", staticmethod(refuse))
        with pytest.raises(RuntimeError, match="could not connect"):
            LocalCluster(cluster_net)
        ((cmd, process),) = spawned
        assert process.returncode is not None
        weights = cmd[cmd.index("--weights") + 1]
        assert not os.path.exists(os.path.dirname(weights))

    def test_close_stops_the_engine_dispatch_lanes(self, cluster_net):
        before = _dispatch_threads()
        x = make_rng(3).standard_normal((2, 1, 28, 28))
        with LocalCluster(cluster_net) as cluster:
            cluster.master.engine.execute(ha_plan("lower100"), x)
            assert _dispatch_threads() - before  # a lane ran the worker's rounds
        assert not _dispatch_threads() - before
