"""Tests for freeze-mask bookkeeping (the incremental-training mechanism)."""

import numpy as np
import pytest

from repro.nn.parameter import Parameter
from repro.slimmable.masks import RegionTracker, conv_region, linear_region, vector_region
from repro.slimmable.spec import ChannelSlice


class TestRegionBuilders:
    def test_conv_region(self):
        mask = conv_region((4, 4, 3, 3), ChannelSlice(0, 2), ChannelSlice(1, 3))
        assert mask[0:2, 1:3].all()
        assert mask.sum() == 2 * 2 * 9

    def test_vector_region(self):
        mask = vector_region((6,), ChannelSlice(2, 5))
        np.testing.assert_array_equal(mask, [0, 0, 1, 1, 1, 0])

    def test_linear_region(self):
        mask = linear_region((3, 8), ChannelSlice(2, 6))
        assert mask[:, 2:6].all()
        assert mask.sum() == 3 * 4


class TestRegionTracker:
    def test_first_stage_fully_trainable(self):
        p = Parameter(np.zeros((4, 4)))
        tracker = RegionTracker()
        region = np.zeros((4, 4))
        region[:2, :2] = 1
        trainable = tracker.trainable_mask(p, region)
        np.testing.assert_array_equal(trainable, region)

    def test_second_stage_excludes_covered(self):
        p = Parameter(np.zeros((4, 4)))
        tracker = RegionTracker()
        first = np.zeros((4, 4))
        first[:2, :2] = 1
        tracker.mark(p, first)
        second = np.zeros((4, 4))
        second[:3, :3] = 1
        trainable = tracker.trainable_mask(p, second)
        assert not trainable[:2, :2].any()
        assert trainable[:3, :3].sum() == 9 - 4

    def test_mark_is_cumulative_union(self):
        p = Parameter(np.zeros(4))
        tracker = RegionTracker()
        tracker.mark(p, np.array([1.0, 0, 0, 0]))
        tracker.mark(p, np.array([0.0, 1, 0, 0]))
        np.testing.assert_array_equal(tracker.covered(p), [1, 1, 0, 0])

    def test_reset(self):
        p = Parameter(np.zeros(2))
        tracker = RegionTracker()
        tracker.mark(p, np.ones(2))
        tracker.reset()
        np.testing.assert_array_equal(tracker.covered(p), [0, 0])

    def test_shape_mismatch_raises(self):
        p = Parameter(np.zeros(2))
        with pytest.raises(ValueError):
            RegionTracker().mark(p, np.ones(3))
