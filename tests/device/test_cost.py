"""Tests for per-layer cost accounting."""

import pytest

from repro.device.cost import (
    block_partitioned_costs,
    subnet_flops,
    subnet_layer_costs,
    subnet_num_layers,
    subnet_param_count,
)


class TestLayerCosts:
    def test_paper_full_model_flops(self, paper_net):
        spec = paper_net.width_spec.full()
        # conv1: 2*28*28*16*1*9; conv2: 2*14*14*16*16*9; conv3: 2*7*7*16*16*9; fc: 2*784*10
        expected = 225792 + 903168 + 225792 + 15680
        assert subnet_flops(paper_net, spec) == expected

    def test_paper_half_model_flops(self, paper_net):
        spec = paper_net.width_spec.find("lower50")
        expected = 112896 + 225792 + 56448 + 7840
        assert subnet_flops(paper_net, spec) == expected
        assert expected == 402976  # the calibration constant

    def test_upper50_flops_equal_lower50(self, paper_net):
        ws = paper_net.width_spec
        assert subnet_flops(paper_net, ws.find("upper50")) == subnet_flops(
            paper_net, ws.find("lower50")
        )

    def test_layer_costs_structure(self, paper_net):
        costs = subnet_layer_costs(paper_net, paper_net.width_spec.full())
        assert [c.name for c in costs] == ["conv0", "conv1", "conv2", "fc"]
        # Pooled spatial sizes: 14x14, 7x7, 7x7, then 10 logits.
        assert [c.out_spatial for c in costs] == [196, 49, 49, 1]
        assert costs[0].activation_bytes == 16 * 196 * 4

    def test_num_layers(self, paper_net):
        assert subnet_num_layers(paper_net) == 4


class TestPartitionedCosts:
    def test_halves_sum_to_total(self, paper_net):
        spec = paper_net.width_spec.full()
        total = subnet_flops(paper_net, spec)
        (master, worker), _ = block_partitioned_costs(paper_net, spec, (0, 8, 16))
        assert sum(c.flops for c in master) + sum(c.flops for c in worker) == total

    def test_even_split_gives_equal_halves(self, paper_net):
        spec = paper_net.width_spec.full()
        (master, worker), _ = block_partitioned_costs(paper_net, spec, (0, 8, 16))
        assert sum(c.flops for c in master) == sum(c.flops for c in worker) == 685216

    def test_exchange_sizes(self, paper_net):
        spec = paper_net.width_spec.full()
        _, exchanges = block_partitioned_costs(paper_net, spec, (0, 8, 16))
        # Pooled half-activations: 8*14*14*4, 8*7*7*4, 8*7*7*4, then 10 logits.
        assert exchanges == [6272, 1568, 1568, 40]

    def test_uneven_split(self, paper_net):
        spec = paper_net.width_spec.full()
        (master, worker), exchanges = block_partitioned_costs(paper_net, spec, (0, 4, 16))
        assert master[0].out_channels == 4
        assert worker[0].out_channels == 12
        # Exchange bounded by the larger half.
        assert exchanges[0] == 12 * 196 * 4

    def test_split_outside_spec_rejected(self, paper_net):
        spec = paper_net.width_spec.find("lower50")  # channels [0, 8)
        with pytest.raises(ValueError):
            block_partitioned_costs(paper_net, spec, (0, 8, 8))


class TestParamCount:
    def test_lower50_count(self, paper_net):
        spec = paper_net.width_spec.find("lower50")
        # conv1: 8*1*9+8; conv2/3: 8*8*9+8; fc: 10*(392+1)
        assert subnet_param_count(paper_net, spec) == 80 + 584 + 584 + 3930

    def test_full_count_matches_module(self, paper_net):
        spec = paper_net.width_spec.full()
        assert subnet_param_count(paper_net, spec) == paper_net.num_parameters()

    def test_upper_equals_lower_at_same_width(self, paper_net):
        ws = paper_net.width_spec
        assert subnet_param_count(paper_net, ws.find("upper50")) == subnet_param_count(
            paper_net, ws.find("lower50")
        )
