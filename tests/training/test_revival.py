"""Tests for dead-unit revival."""

import numpy as np
import pytest

from repro.slimmable.masks import RegionTracker
from repro.training.revival import find_dead_channels, revive_dead_channels
from repro.utils.rng import make_rng


def kill_channels(net, layer, channels):
    """Force conv channels dead: zero weights, large negative bias."""
    conv = net.convs[layer]
    conv.weight.data[channels] = 0.0
    conv.bias.data[channels] = -10.0


@pytest.fixture
def probe(rng):
    # Non-negative inputs like images, so negative biases really kill ReLUs.
    return np.abs(rng.standard_normal((16, 1, 28, 28)))


class TestFindDeadChannels:
    def test_healthy_net_has_no_dead_channels(self, paper_net, probe):
        spec = paper_net.width_spec.find("upper50")
        dead = find_dead_channels(paper_net, spec, probe)
        # Fresh kaiming init: overwhelmingly alive.  Allow the odd unlucky kernel.
        assert sum(len(d) for d in dead) <= 2

    def test_detects_killed_channels(self, paper_net, probe):
        kill_channels(paper_net, 0, [9, 10])
        spec = paper_net.width_spec.find("upper50")
        dead = find_dead_channels(paper_net, spec, probe)
        assert set(dead[0]) >= {9, 10}

    def test_indices_are_absolute(self, paper_net, probe):
        kill_channels(paper_net, 1, [8])
        spec = paper_net.width_spec.find("upper50")
        dead = find_dead_channels(paper_net, spec, probe)
        assert 8 in dead[1]


class TestReviveDeadChannels:
    def test_revives_and_restores_gradient_flow(self, paper_net, probe, rng):
        kill_channels(paper_net, 0, [8, 9, 10, 11])  # upper25's whole first layer
        spec = paper_net.width_spec.find("upper25")
        revived = revive_dead_channels(paper_net, spec, probe, rng)
        assert revived >= 4
        dead_after = find_dead_channels(paper_net, spec, probe)
        assert dead_after[0] == []

    def test_does_not_touch_alive_channels(self, paper_net, probe, rng):
        kill_channels(paper_net, 0, [8])
        spec = paper_net.width_spec.find("upper50")
        before = paper_net.convs[0].weight.data[[9, 12, 15]].copy()
        revive_dead_channels(paper_net, spec, probe, rng)
        np.testing.assert_array_equal(paper_net.convs[0].weight.data[[9, 12, 15]], before)

    def test_does_not_touch_channels_outside_spec(self, paper_net, probe, rng):
        kill_channels(paper_net, 0, [0, 8])  # one lower, one upper
        spec = paper_net.width_spec.find("upper50")
        lower_row = paper_net.convs[0].weight.data[0].copy()
        revive_dead_channels(paper_net, spec, probe, rng)
        np.testing.assert_array_equal(paper_net.convs[0].weight.data[0], lower_row)

    def test_respects_freeze_tracker(self, paper_net, probe, rng):
        """Channels fully covered by earlier stages must stay dead rather
        than be re-initialised (that would undo the earlier stage)."""
        kill_channels(paper_net, 0, [8])
        spec25 = paper_net.width_spec.find("upper25")
        spec50 = paper_net.width_spec.find("upper50")
        tracker = RegionTracker()
        for param, region in paper_net.region_masks(spec25):
            tracker.mark(param, region)
        frozen_row = paper_net.convs[0].weight.data[8].copy()
        revive_dead_channels(paper_net, spec50, probe, rng, tracker)
        np.testing.assert_array_equal(paper_net.convs[0].weight.data[8], frozen_row)

    def test_downstream_channels_recover_without_reinit(self, paper_net, probe, rng):
        """A layer-2 channel dead only because layer-1 fed it zeros should
        come back once layer 1 is revived, keeping its trained weights."""
        kill_channels(paper_net, 0, [8, 9, 10, 11])
        spec = paper_net.width_spec.find("upper25")
        conv1_before = paper_net.convs[1].weight.data[8:12, 8:12].copy()
        revive_dead_channels(paper_net, spec, probe, rng)
        dead_after = find_dead_channels(paper_net, spec, probe)
        # Layer 1 must be fully alive again...
        assert dead_after[0] == []
        # ...and layer-2 weights mostly untouched (only truly-dead rows reinit).
        unchanged = (paper_net.convs[1].weight.data[8:12, 8:12] == conv1_before).mean()
        assert unchanged > 0.4

    def test_returns_zero_on_healthy_net(self, paper_net, probe, rng):
        spec = paper_net.width_spec.find("lower50")
        assert revive_dead_channels(paper_net, spec, probe, rng) <= 1
