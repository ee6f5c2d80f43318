"""Tests for the layer-wise (depth) partitioning baseline."""

import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.layer_partition import LayerCut, LayerPartitionModel
from repro.distributed.throughput import SystemThroughputModel


@pytest.fixture
def lp(paper_net):
    return LayerPartitionModel(
        paper_net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )


class TestLayerCut:
    def test_bounds(self):
        with pytest.raises(ValueError):
            LayerCut(0, 4)
        with pytest.raises(ValueError):
            LayerCut(4, 4)


class TestStageCosts:
    def test_partition_covers_all_layers(self, lp, paper_net):
        spec = paper_net.width_spec.full()
        master, worker, _ = lp.stage_costs(spec, LayerCut(2, 4))
        assert len(master) == 2 and len(worker) == 2
        from repro.device.cost import subnet_flops

        total = subnet_flops(paper_net, spec)
        assert sum(c.flops for c in master) + sum(c.flops for c in worker) == total

    def test_transfer_is_cut_activation(self, lp, paper_net):
        spec = paper_net.width_spec.full()
        _, _, transfer = lp.stage_costs(spec, LayerCut(1, 4))
        # Full (not half) pooled conv1 activation: 16 * 14*14 * 4 bytes.
        assert transfer == 16 * 196 * 4


class TestLatency:
    def test_sequential_sums_stages(self, lp, paper_net):
        spec = paper_net.width_spec.full()
        out = lp.latency(spec, LayerCut(2, 4))
        assert out.latency_s == pytest.approx(sum(out.compute_s) + out.comm_s)

    def test_pipelined_beats_sequential(self, lp, paper_net):
        spec = paper_net.width_spec.full()
        cut = LayerCut(2, 4)
        assert lp.pipelined_throughput(spec, cut) > lp.latency(spec, cut).throughput_ips

    def test_best_cut_search(self, lp, paper_net):
        spec = paper_net.width_spec.full()
        cut, ips = lp.best_cut(spec, pipelined=True)
        assert 1 <= cut.cut <= 3
        for other in range(1, 4):
            assert ips >= lp.pipelined_throughput(spec, LayerCut(other, 4)) - 1e-12


class TestComparisonWithWidthPartition:
    def test_width_ha_beats_sequential_layer_split(self, lp, paper_net):
        """Per-image latency: width partitioning parallelises every layer,
        depth partitioning serialises the devices."""
        tm = SystemThroughputModel(
            paper_net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        spec = paper_net.width_spec.full()
        width_ha = tm.ha_throughput(spec).throughput_ips
        _, layer_seq = lp.best_cut(spec, pipelined=False)
        assert width_ha > layer_seq

    def test_ht_beats_any_layer_split(self, lp, paper_net):
        tm = SystemThroughputModel(
            paper_net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        ws = paper_net.width_spec
        ht = tm.ht_throughput(ws.find("lower50"), ws.find("upper50")).throughput_ips
        _, layer_pipe = lp.best_cut(ws.full(), pipelined=True)
        assert ht > layer_pipe

    def test_layer_split_never_survives_failure(self):
        assert not LayerPartitionModel.survives_single_failure()
