"""Tests for the analytical throughput model (the Fig. 2 methodology)."""

import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.modes import MASTER, WORKER
from repro.engine.plan import failed_plan, ha_plan, ht_plan, solo_plan


@pytest.fixture
def tm(paper_net):
    return SystemThroughputModel(
        paper_net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )


class TestCalibratedOperatingPoints:
    """The four paper numbers, reproduced to within 0.5%."""

    def test_lone_master_50(self, tm):
        assert tm.evaluate_plan(solo_plan(MASTER, "lower50")).throughput_ips == pytest.approx(
            14.4, rel=0.005
        )

    def test_lone_worker_upper50(self, tm):
        assert tm.evaluate_plan(solo_plan(WORKER, "upper50")).throughput_ips == pytest.approx(
            13.9, rel=0.005
        )

    def test_ht_mode(self, tm, paper_net):
        ws = paper_net.width_spec
        out = tm.ht_throughput(ws.find("lower50"), ws.find("upper50"))
        assert out.throughput_ips == pytest.approx(28.3, rel=0.005)

    def test_ha_mode(self, tm, paper_net):
        out = tm.ha_throughput(paper_net.width_spec.full())
        assert out.throughput_ips == pytest.approx(11.1, rel=0.005)


class TestStructuralProperties:
    def test_ht_is_sum_of_solos(self, tm, paper_net):
        ws = paper_net.width_spec
        lower, upper = ws.find("lower50"), ws.find("upper50")
        ht = tm.ht_throughput(lower, upper).throughput_ips
        solo_sum = (
            tm.evaluate_plan(solo_plan(MASTER, lower.name)).throughput_ips
            + tm.evaluate_plan(solo_plan(WORKER, upper.name)).throughput_ips
        )
        assert ht == pytest.approx(solo_sum)

    def test_ha_slower_than_lone_half_model(self, tm, paper_net):
        """Communication makes joint full-model inference slower than a lone
        50% model — the crossover the paper's HT mode exploits."""
        ws = paper_net.width_spec
        ha = tm.ha_throughput(ws.full()).throughput_ips
        solo = tm.evaluate_plan(solo_plan(MASTER, "lower50")).throughput_ips
        assert ha < solo

    def test_ha_breakdown_components(self, tm, paper_net):
        out = tm.ha_throughput(paper_net.width_spec.full())
        assert len(out.compute_s) == 2
        assert all(t > 0 for t in out.compute_s)
        assert out.comm_s > 0
        assert out.latency_s == pytest.approx(max(out.compute_s) + out.comm_s)

    def test_partitioning_beats_lone_full_model(self, tm, paper_net):
        """Width partitioning is worth doing at all: the distributed 100%
        model outruns the 100% model on a single device (even paying comm),
        which is why the paper distributes in the first place."""
        ws = paper_net.width_spec
        ha = tm.ha_throughput(ws.full()).throughput_ips
        lone_full = tm.evaluate_plan(solo_plan(MASTER, ws.full().name)).throughput_ips
        assert ha > lone_full

    def test_free_comm_strictly_improves_ha(self, tm, paper_net):
        free = CommLatencyModel(base_latency_s=0.0, bandwidth_bytes_per_s=1e12)
        tm_free = SystemThroughputModel(
            paper_net, jetson_nx_master(), jetson_nx_worker(), free
        )
        ws = paper_net.width_spec
        assert (
            tm_free.ha_throughput(ws.full()).throughput_ips
            > tm.ha_throughput(ws.full()).throughput_ips
        )


class TestPlanEvaluation:
    def test_compute_is_listed_in_block_order(self, tm, paper_net):
        """The master's stream is block 0, the worker's block 1; a lone
        device leaves the other's entry at zero."""
        ws = paper_net.width_spec
        t_m = tm.standalone_latency(MASTER, ws.find("lower50"))
        t_w = tm.standalone_latency(WORKER, ws.find("upper50"))
        assert tm.evaluate_plan(ht_plan("lower50", "upper50")).compute_s == (t_m, t_w)
        assert tm.evaluate_plan(solo_plan(WORKER, "upper50")).compute_s == (0.0, t_w)

    def test_failed_plan_zero(self, tm):
        assert tm.evaluate_plan(failed_plan("x")).throughput_ips == 0.0

    def test_solo_plan(self, tm):
        out = tm.evaluate_plan(solo_plan("master", "lower50"))
        assert out.throughput_ips == pytest.approx(14.4, rel=0.005)

    def test_ht_plan(self, tm):
        out = tm.evaluate_plan(ht_plan("lower50", "upper50"))
        assert out.throughput_ips == pytest.approx(28.3, rel=0.005)

    def test_ha_plan(self, tm):
        out = tm.evaluate_plan(ha_plan("lower100"))
        assert out.throughput_ips == pytest.approx(11.1, rel=0.005)
