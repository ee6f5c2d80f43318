"""Tests for the N-device generalisation: the one throughput model and the
one engine over more than the paper's two channel blocks."""

import numpy as np
import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.device.cost import block_partitioned_costs, subnet_num_layers
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.endpoints import EndpointUnavailable
from repro.engine.graph import BlockPartition
from repro.engine.modes import ExecutionMode
from repro.engine.plan import solo_plan, streams_plan
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import WidthSpec
from repro.utils.rng import make_rng
from tests.engine.blocks import block_engine, ha_over_all_blocks


@pytest.fixture(scope="module")
def quad_net():
    spec = WidthSpec(max_width=16, lower_widths=(4, 8, 12, 16), split=8, num_convs=3)
    return SlimmableConvNet(spec, rng=make_rng(0))


@pytest.fixture(scope="module")
def quad_model(quad_net):
    device = jetson_nx_master()
    return SystemThroughputModel(
        quad_net, device, device, CommLatencyModel(), BlockPartition.even(4, 16)
    )


@pytest.fixture(scope="module")
def quad_blocks(quad_model, quad_net):
    """Each block's own sub-network, in block order."""
    return [quad_model.partition.block_spec(k, len(quad_net.convs)) for k in range(4)]


@pytest.fixture(scope="module")
def quad_combined(quad_model, quad_net):
    return quad_model.partition.combined_spec(len(quad_net.convs))


class TestBlockPartition:
    def test_even_split(self):
        p = BlockPartition.even(4, 16)
        assert p.num_blocks == 4
        assert p.block_slice(0).width == 4
        assert p.block_slice(3).start == 12

    def test_uneven_boundaries(self):
        p = BlockPartition((0, 4, 16))
        assert p.num_blocks == 2
        assert p.block_slice(1).width == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockPartition((0, 16))  # one block
        with pytest.raises(ValueError):
            BlockPartition((2, 8, 16))  # does not start at 0
        with pytest.raises(ValueError):
            BlockPartition((0, 8, 8, 16))  # not strictly increasing
        with pytest.raises(ValueError):
            BlockPartition.even(3, 16)  # 16 % 3 != 0
        with pytest.raises(ValueError):
            BlockPartition.even(4, 16).block_slice(4)


class TestFourBlockThroughput:
    def test_ht_rates_add(self, quad_model, quad_blocks):
        # Identical devices: each block's spec streams at the same rate on any of them.
        alone = [quad_model.ht_throughput(spec).throughput_ips for spec in quad_blocks]
        ht = quad_model.ht_throughput(*quad_blocks).throughput_ips
        assert ht == pytest.approx(sum(alone))
        assert ht > 3 * alone[0]

    def test_reliability_profile_monotone(self, quad_model):
        profile = quad_model.reliability_profile()
        assert profile[4] == 0.0
        assert all(profile[k] >= profile[k + 1] for k in range(4))
        # No single failure kills the system.
        assert profile[1] > 0.0

    def test_ht_beats_ha_in_paper_regime(self, quad_model, quad_blocks, quad_combined):
        """The paper's comm-dominated regime persists at N=4: independent
        streams outrun the all-gather pipeline."""
        assert (
            quad_model.ht_throughput(*quad_blocks).throughput_ips
            > quad_model.ha_throughput(quad_combined).throughput_ips
        )

    def test_ha_charges_block_partitioned_costs(self, quad_net, quad_model, quad_combined):
        """N-block HA: lock-step compute of each device's clipped block, plus
        the all-gathers and N-1 partial-logit vectors at the classifier."""
        per_device, exchanges = block_partitioned_costs(
            quad_net, quad_combined, quad_model.partition.boundaries
        )
        layers = subnet_num_layers(quad_net)
        compute = max(
            profile.compute_time(sum(c.flops for c in costs), layers)
            for profile, costs in zip(quad_model.profiles, per_device)
        )
        expected = 1.0 / (compute + quad_model.comm.total_time(exchanges))
        assert quad_model.ha_throughput(quad_combined).throughput_ips == expected

    def test_graceful_degradation(self, quad_model, quad_blocks):
        """Each lost device removes exactly its stream, never the system."""
        throughputs = [
            quad_model.ht_throughput(*quad_blocks[:k]).throughput_ips for k in range(5)
        ]
        assert throughputs[0] == 0.0
        assert all(a < b for a, b in zip(throughputs, throughputs[1:]))


class TestTwoBlocks:
    """The paper's two devices are the N = 2 case of the one model."""

    def test_two_block_case_matches_width_partition_shape(self, quad_net):
        """N=2 with even blocks reproduces the paper's two-device structure."""
        device = jetson_nx_master()
        model = SystemThroughputModel(
            quad_net, device, device, CommLatencyModel(), BlockPartition.even(2, 16)
        )
        num_convs = len(quad_net.convs)
        blocks = [model.partition.block_spec(k, num_convs) for k in range(2)]
        ht = model.ht_throughput(*blocks).throughput_ips
        ha = model.ha_throughput(model.partition.combined_spec(num_convs)).throughput_ips
        solo = model.ht_throughput(blocks[0]).throughput_ips
        assert ht == pytest.approx(2 * solo, rel=1e-9)
        assert ha < solo < ht

    def test_default_partition_is_the_two_way_split(self, paper_net):
        """Without a partition the model splits at the width spec's split."""
        master, worker, comm = jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        ws = paper_net.width_spec
        explicit = SystemThroughputModel(
            paper_net, master, worker, comm, BlockPartition.two_way(ws.split, ws.max_width)
        )
        default = SystemThroughputModel(paper_net, master, worker, comm)
        assert default.partition.boundaries == explicit.partition.boundaries
        assert default.profiles == (master, worker)
        assert default.ha_throughput(ws.full()) == explicit.ha_throughput(ws.full())

    def test_one_failure_leaves_the_slower_device(self, paper_net):
        """The worst single failure takes the faster of master and worker."""
        model = SystemThroughputModel(
            paper_net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        num_convs = len(paper_net.convs)
        ht = model.ht_throughput(*(model.partition.block_spec(k, num_convs) for k in range(2)))
        profile = model.reliability_profile()
        assert profile[1] == min(1.0 / t for t in ht.compute_s)
        assert profile[2] == 0.0


class TestEngineDeviceFailure:
    """A crashed in-process device is the engine's failure signal, exactly
    as a crashed worker behind a transport is."""

    @pytest.fixture(params=[False, True], ids=["eager", "compiled"])
    def blocks(self, request, quad_net):
        engine, devices = block_engine(
            quad_net,
            [jetson_nx_master()] * 2,
            BlockPartition.even(2, 16),
            compiled=request.param,
        )
        yield engine, devices
        engine.shutdown()

    def test_ha_raises_once_a_block_is_down(self, blocks):
        engine, devices = blocks
        ha = ha_over_all_blocks(engine)
        x = make_rng(5).standard_normal((3, 1, 28, 28))
        before = engine.execute(ha, x).logits
        devices[1].crash()
        with pytest.raises(EndpointUnavailable):
            engine.execute(ha, x)
        # A solo plan on the dead device reports the same signal.
        with pytest.raises(EndpointUnavailable):
            engine.execute(solo_plan("dev1", "block1"), x)
        devices[1].recover()
        np.testing.assert_array_equal(engine.execute(ha, x).logits, before)

    def test_ht_over_the_survivor_answers_with_its_block(self, blocks, quad_net):
        engine, devices = blocks
        x = make_rng(5).standard_normal((3, 1, 28, 28))
        assert engine.execute(ha_over_all_blocks(engine), x).mode is ExecutionMode.HIGH_ACCURACY
        devices[1].crash()
        served = engine.execute(streams_plan([("dev0", "block0")]), x)
        assert served.mode is ExecutionMode.HIGH_THROUGHPUT
        assert list(served.streams) == ["dev0"]
        view = quad_net.view(engine.partition.block_spec(0, len(quad_net.convs)))
        view.train(False)
        np.testing.assert_array_equal(served.logits, view(x))
