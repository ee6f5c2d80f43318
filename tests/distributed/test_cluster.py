"""Integration tests: real multi-process TCP cluster on localhost."""

import numpy as np
import pytest

from repro.distributed import LocalCluster
from repro.engine.endpoints import EndpointUnavailable
from repro.slimmable import SlimmableConvNet, paper_width_spec
from repro.utils import make_rng


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
            remote = cluster.master.run_remote(spec, x)
            view = cluster_net.view(spec)
            view.train(False)
            local = view(x.astype(np.float32).astype(np.float64))
            np.testing.assert_allclose(remote, local, atol=1e-5)

    def test_ha_over_real_tcp(self, cluster_net):
        rng = make_rng(1)
        with LocalCluster(cluster_net) as cluster:
            spec = cluster_net.width_spec.full()
            x = rng.standard_normal((3, 1, 28, 28))
            out = cluster.master.run_ha(spec, x)
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
            cluster.master.run_remote(spec, x)  # worker is alive and serving

            cluster.kill_worker()  # power outage

            with pytest.raises(EndpointUnavailable):
                cluster.master.run_remote(spec, x)
            assert not cluster.master.ping_worker()

            # Failover: master continues standalone.
            logits = cluster.master.run_local(
                cluster_net.width_spec.find("lower50"), x
            )
            assert logits.shape == (1, 10)

    def test_scripted_crash_after_n_requests(self, cluster_net):
        rng = make_rng(3)
        with LocalCluster(cluster_net, crash_after=1) as cluster:
            spec = cluster_net.width_spec.find("upper25")
            x = rng.standard_normal((1, 1, 28, 28))
            cluster.master.run_remote(spec, x)
            with pytest.raises(EndpointUnavailable):
                cluster.master.run_remote(spec, x)
