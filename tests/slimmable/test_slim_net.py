"""Tests for the slimmable network container and sub-network views."""

import numpy as np
import pytest

from repro.device.cost import subnet_flops
from repro.engine.session import InferenceSession
from repro.nn import functional as F
from repro.nn.context import ForwardContext
from repro.nn.loss import SoftmaxCrossEntropy
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import ChannelSlice, paper_width_spec
from repro.training.revival import find_dead_channels
from repro.utils.rng import make_rng
from tests.nn.gradcheck import check_layer_gradients

# Every sub-network of the conftest ``small_spec`` family (widths 2/4/6/8 of
# 8, split at 4).
SMALL_SUBNETS = ["lower25", "lower50", "lower75", "lower100", "upper25", "upper50"]


class TestArchitecture:
    def test_paper_parameter_count(self, paper_net):
        # conv1: 16*1*9+16; conv2/3: 16*16*9+16; fc: 10*784+10
        expected = (16 * 9 + 16) + 2 * (16 * 16 * 9 + 16) + (10 * 784 + 10)
        assert paper_net.num_parameters() == expected

    def test_all_subnets_produce_logits(self, paper_net, rng):
        x = rng.standard_normal((3, 1, 28, 28))
        for spec in paper_net.width_spec.all_specs():
            logits = paper_net.view(spec)(x)
            assert logits.shape == (3, 10)
            assert np.isfinite(logits).all()

    def test_feature_slice_mapping(self, paper_net):
        fs = paper_net.feature_slice_for(ChannelSlice(8, 16))
        assert fs.start == 8 * 49 and fs.stop == 16 * 49

    def test_spec_length_mismatch_rejected(self, paper_net):
        from repro.slimmable.spec import uniform_spec

        with pytest.raises(ValueError):
            paper_net.bind_spec(uniform_spec("bad", 0, 4, 5), ForwardContext())

    def test_too_much_pooling_rejected(self, paper_spec):
        with pytest.raises(ValueError):
            SlimmableConvNet(paper_spec, image_size=2, rng=make_rng(0))


class TestWeightSharing:
    def test_lower_subnet_shares_weights_with_full(self, paper_net, rng):
        """Changing the full model's lower block changes the lower subnet."""
        ws = paper_net.width_spec
        x = rng.standard_normal((2, 1, 28, 28))
        before = paper_net.view(ws.find("lower50"))(x)
        paper_net.convs[0].weight.data[:8] += 0.5
        after = paper_net.view(ws.find("lower50"))(x)
        assert not np.allclose(before, after)

    def test_upper_subnet_independent_of_lower_weights(self, paper_net, rng):
        """The paper's reliability mechanism: upper subnets never read the
        lower channels' weights, so scrambling them must not change upper
        outputs (this is what lets the Worker survive a Master failure)."""
        ws = paper_net.width_spec
        x = rng.standard_normal((2, 1, 28, 28))
        before = paper_net.view(ws.find("upper50"))(x)
        # Scramble everything the master holds: rows [0, 8) of each conv,
        # and the classifier columns for channels [0, 8).
        for conv in paper_net.convs:
            conv.weight.data[:8] = rng.standard_normal(conv.weight.data[:8].shape)
            conv.bias.data[:8] = rng.standard_normal(8)
        paper_net.classifier.weight.data[:, : 8 * 49] = rng.standard_normal((10, 8 * 49))
        after = paper_net.view(ws.find("upper50"))(x)
        np.testing.assert_allclose(before, after)

    def test_lower_subnet_independent_of_upper_weights(self, paper_net, rng):
        ws = paper_net.width_spec
        x = rng.standard_normal((2, 1, 28, 28))
        before = paper_net.view(ws.find("lower50"))(x)
        for conv in paper_net.convs:
            conv.weight.data[8:] = rng.standard_normal(conv.weight.data[8:].shape)
        after = paper_net.view(ws.find("lower50"))(x)
        np.testing.assert_allclose(before, after)

    def test_combined_model_uses_cross_blocks(self, paper_net, rng):
        """The 100% model must read lower->upper cross weights (dense)."""
        ws = paper_net.width_spec
        x = rng.standard_normal((2, 1, 28, 28))
        before = paper_net.view(ws.find("lower100"))(x)
        # Perturb only a cross block: conv2 rows 8:16, cols 0:8.
        paper_net.convs[1].weight.data[8:, :8] += 0.5
        after = paper_net.view(ws.find("lower100"))(x)
        assert not np.allclose(before, after)
        # But the standalone halves are untouched by that cross block.
        np.testing.assert_allclose(
            paper_net.view(ws.find("lower50"))(x), paper_net.view(ws.find("lower50"))(x)
        )


class TestViews:
    def test_backward_guards_against_stale_spec(self, paper_net, rng):
        ws = paper_net.width_spec
        view_a = paper_net.view(ws.find("lower25"))
        view_b = paper_net.view(ws.find("lower50"))
        x = rng.standard_normal((1, 1, 28, 28))
        ctx = ForwardContext()
        y = view_a.forward(x, ctx)
        view_b.forward(x, ctx)  # rebinds the context to lower50
        with pytest.raises(RuntimeError, match="bound to 'lower50'"):
            view_a.backward(np.ones_like(y), ctx)

    def test_view_parameters_are_container_parameters(self, paper_net):
        view = paper_net.view(paper_net.width_spec.find("lower25"))
        assert view.parameters() == paper_net.parameters()

    def test_flops_monotone_in_width(self, paper_net):
        ws = paper_net.width_spec
        flops = [subnet_flops(paper_net, ws.lower(w)) for w in ws.lower_widths]
        assert flops == sorted(flops)
        assert flops[0] < flops[-1]


class TestTrainingThroughViews:
    def test_backward_only_touches_active_region(self, paper_net, rng):
        ws = paper_net.width_spec
        view = paper_net.view(ws.find("upper25"))
        x = rng.standard_normal((2, 1, 28, 28))
        ctx = ForwardContext()
        y = view(x, ctx)
        loss_fn = SoftmaxCrossEntropy()
        _, grad = loss_fn(y, np.array([1, 2]))
        view.zero_grad()
        view.backward(grad, ctx)
        # conv2 gradient must live only in block [8:12, 8:12].
        g = paper_net.convs[1].weight.grad
        assert g[8:12, 8:12].any()
        mask = np.zeros_like(g)
        mask[8:12, 8:12] = 1
        assert not (g * (1 - mask)).any()

    def test_region_masks_cover_all_touched_params(self, paper_net, rng):
        """Gradient support must be inside the declared region mask."""
        ws = paper_net.width_spec
        loss_fn = SoftmaxCrossEntropy()
        x = rng.standard_normal((2, 1, 28, 28))
        for spec in ws.all_specs():
            view = paper_net.view(spec)
            ctx = ForwardContext()
            y = view(x, ctx)
            _, grad = loss_fn(y, np.array([0, 1]))
            view.zero_grad()
            view.backward(grad, ctx)
            regions = {id(p): m for p, m in paper_net.region_masks(spec)}
            for param in paper_net.parameters():
                support = (param.grad != 0).astype(float)
                region = regions[id(param)]
                outside = support * (1 - region)
                assert not outside.any(), f"{spec.name}: {param.name} grad outside region"


class TestNoCallState:
    def test_modules_hold_no_call_state(self, paper_net, rng):
        """Every way of running a sub-network leaves each module's attributes
        as they were: same keys, and every value the very same object."""
        ws = paper_net.width_spec
        specs = [ws.find("lower50"), ws.find("upper50"), ws.full()]
        views = [paper_net.view(spec) for spec in specs]
        # Building a session flips eval mode, its one documented write; it
        # happens before serving, so before the snapshot.
        sessions = [InferenceSession(paper_net, spec.name) for spec in specs]
        modules = list(paper_net.modules()) + views
        snapshots = [dict(vars(module)) for module in modules]
        x = rng.standard_normal((2, 1, 28, 28))
        for spec, view, session in zip(specs, views, sessions):
            view(x)
            ctx = ForwardContext()
            y = view.forward(x, ctx)
            view.backward(np.ones_like(y), ctx)
            session.run(x)
            subnet_flops(paper_net, spec)
            find_dead_channels(paper_net, spec, x)
        for module, snapshot in zip(modules, snapshots):
            state = vars(module)
            name = type(module).__name__
            assert state.keys() == snapshot.keys(), name
            for key, value in snapshot.items():
                assert state[key] is value, f"{name}.{key} changed"


def tiny_net(small_spec):
    """``small_spec`` on 8x8 inputs, so a whole-network gradcheck is cheap."""
    return SlimmableConvNet(small_spec, image_size=8, rng=make_rng(3))


class TestEverySubNetwork:
    def test_family_is_the_listed_one(self, small_spec):
        assert [spec.name for spec in small_spec.all_specs()] == SMALL_SUBNETS

    @pytest.mark.parametrize("name", SMALL_SUBNETS)
    def test_logits_match_manual_slicing(self, small_spec, name):
        # The sub-network computed by hand from weight slices: the oracle
        # for the bindings bind_spec writes.
        net = tiny_net(small_spec)
        spec = small_spec.find(name)
        x = make_rng(4).standard_normal((3, 1, 8, 8))
        h, prev = x, None
        for i, (conv, out_slice) in enumerate(zip(net.convs, spec.conv_slices)):
            rows = out_slice.as_slice()
            cols = slice(0, 1) if prev is None else prev.as_slice()
            w = np.ascontiguousarray(conv.weight.data[rows, cols])
            h, _ = F.conv2d_forward(h, w, conv.bias.data[rows], 1, 1)
            h = np.maximum(h, 0)
            if i in net.pools:
                h, _ = F.maxpool2d_forward(h, 2, 2)
            prev = out_slice
        features = net.feature_slice_for(spec.last_slice).as_slice()
        expected = h.reshape(3, -1) @ net.classifier.weight.data[:, features].T
        expected += net.classifier.bias.data
        np.testing.assert_allclose(net.view(spec)(x), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", SMALL_SUBNETS)
    def test_whole_network_gradients(self, small_spec, name):
        # Input and every parameter of the container against central
        # differences through conv, ReLU, pool, flatten and classifier; the
        # parameters are checked whole, so gradient outside the sub-network
        # fails as surely as a wrong value inside it.
        net = tiny_net(small_spec)
        spec = small_spec.find(name)
        rng = make_rng(5)
        x = rng.standard_normal((2, 1, 8, 8))
        check_layer_gradients(net, x, rng, bind=lambda ctx: net.bind_spec(spec, ctx))
