"""Tests for exact width-partitioned computation (HA mode math)."""

import numpy as np
import pytest

from repro.engine.partitioned import (
    conv_block_half,
    fc_partial,
    feature_slice_for_block,
    flatten_channel_block,
    partitioned_forward_reference,
)
from repro.nn.context import ForwardContext
from repro.slimmable.spec import ChannelSlice
from repro.utils.rng import make_rng


class TestPartitionedEquivalence:
    @pytest.mark.parametrize("spec_name", ["lower100", "lower75"])
    def test_matches_monolithic_forward(self, paper_net, rng, spec_name):
        spec = paper_net.width_spec.find(spec_name)
        x = rng.standard_normal((4, 1, 28, 28))
        view = paper_net.view(spec)
        view.train(False)
        reference = view(x)
        partitioned, _ = partitioned_forward_reference(paper_net, spec, 8, x)
        np.testing.assert_allclose(partitioned, reference, atol=1e-10)

    def test_matches_at_uneven_split(self, paper_net, rng):
        spec = paper_net.width_spec.full()
        x = rng.standard_normal((2, 1, 28, 28))
        view = paper_net.view(spec)
        view.train(False)
        reference = view(x)
        for split in (4, 12):
            partitioned, _ = partitioned_forward_reference(paper_net, spec, split, x)
            np.testing.assert_allclose(partitioned, reference, atol=1e-10)

    def test_exchange_accounting_matches_cost_model(self, paper_net, rng):
        from repro.device.cost import block_partitioned_costs

        spec = paper_net.width_spec.full()
        x = rng.standard_normal((1, 1, 28, 28))
        _, exchanged = partitioned_forward_reference(paper_net, spec, 8, x)
        _, expected = block_partitioned_costs(paper_net, spec, (0, 8, 16))
        assert exchanged == expected

    def test_upper_spec_rejected(self, paper_net, rng):
        spec = paper_net.width_spec.find("upper50")
        with pytest.raises(ValueError):
            partitioned_forward_reference(paper_net, spec, 8, rng.standard_normal((1, 1, 28, 28)))


class TestConvBlockHalf:
    def test_halves_concatenate_to_full_layer(self, paper_net, rng):
        x = rng.standard_normal((2, 1, 28, 28))
        spec = paper_net.width_spec.full()
        lower = conv_block_half(paper_net, 0, x, ChannelSlice(0, 8))
        upper = conv_block_half(paper_net, 0, x, ChannelSlice(8, 16))
        assert lower.shape == (2, 8, 14, 14)
        assert upper.shape == (2, 8, 14, 14)
        # Full layer through the net's own forward path.
        ctx = ForwardContext(recording=False)
        paper_net.bind_spec(spec, ctx)
        full = paper_net.pools[0](paper_net.relus[0](paper_net.convs[0](x, ctx), ctx), ctx)
        np.testing.assert_allclose(np.concatenate([lower, upper], axis=1), full, atol=1e-12)

    def test_channel_mismatch_raises(self, paper_net, rng):
        x = rng.standard_normal((1, 4, 14, 14))
        with pytest.raises(ValueError):
            conv_block_half(paper_net, 1, x, ChannelSlice(0, 8), ChannelSlice(0, 8))


class TestFcPartial:
    def test_partials_sum_to_full_logits(self, paper_net, rng):
        spec = paper_net.width_spec.full()
        x = rng.standard_normal((3, 1, 28, 28))
        view = paper_net.view(spec)
        view.train(False)
        reference = view(x)
        # Recompute features through the conv stack.
        ctx = ForwardContext(recording=False)
        paper_net.bind_spec(spec, ctx)
        act = x
        for i in range(3):
            act = paper_net.relus[i](paper_net.convs[i](act, ctx), ctx)
            if i in paper_net.pools:
                act = paper_net.pools[i](act, ctx)
        lower_feats = flatten_channel_block(act[:, :8])
        upper_feats = flatten_channel_block(act[:, 8:])
        logits = fc_partial(
            paper_net, lower_feats, feature_slice_for_block(paper_net, ChannelSlice(0, 8)), True
        ) + fc_partial(
            paper_net, upper_feats, feature_slice_for_block(paper_net, ChannelSlice(8, 16)), False
        )
        np.testing.assert_allclose(logits, reference, atol=1e-10)

    def test_feature_shape_validated(self, paper_net, rng):
        with pytest.raises(ValueError):
            fc_partial(paper_net, rng.standard_normal((2, 5)), ChannelSlice(0, 392), True)
