"""Tests for incremental training (the Dynamic DNN recipe, paper ref [3])."""

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.training.incremental import IncrementalTrainer
from repro.training.trainer import TrainConfig
from repro.utils.rng import make_rng


@pytest.mark.slow
class TestFreezingSemantics:
    def test_earlier_subnet_weights_frozen_in_later_stages(self, tiny_data):
        """After the 25% stage completes, the 25% region must never move."""
        train, _ = tiny_data
        model = build_model("dynamic", rng=make_rng(0))
        net = model.net
        trainer = IncrementalTrainer()
        config = TrainConfig(epochs=1, lr=0.05)

        # Run the first stage manually, snapshot its region, then let the
        # full pass run the remaining stages and compare.
        from repro.slimmable.masks import RegionTracker

        tracker = RegionTracker()
        spec25 = model.width_spec.find("lower25")
        net.apply_freeze(spec25, tracker)
        trainer.trainer.fit(net.view(spec25), train, config, rng=make_rng(1))
        trainer._mark(net, spec25, tracker)

        snapshot = {
            "conv0": net.convs[0].weight.data[:4, :1].copy(),
            "conv1": net.convs[1].weight.data[:4, :4].copy(),
            "fc_cols": net.classifier.weight.data[:, : 4 * 49].copy(),
        }
        for spec_name in ("lower50", "lower75", "lower100"):
            spec = model.width_spec.find(spec_name)
            net.apply_freeze(spec, tracker)
            trainer.trainer.fit(net.view(spec), train, config, rng=make_rng(2))
            trainer._mark(net, spec, tracker)

        np.testing.assert_array_equal(net.convs[0].weight.data[:4, :1], snapshot["conv0"])
        np.testing.assert_array_equal(net.convs[1].weight.data[:4, :4], snapshot["conv1"])
        np.testing.assert_array_equal(
            net.classifier.weight.data[:, : 4 * 49], snapshot["fc_cols"]
        )

    @pytest.fixture(scope="class")
    def fitted(self, tiny_data):
        """One one-epoch fit, shared by the assertions below: ``(model, history)``."""
        train, _ = tiny_data
        model = build_model("dynamic", rng=make_rng(0))
        history = IncrementalTrainer().fit(
            model, train, TrainConfig(epochs=1, lr=0.05), rng=make_rng(1)
        )
        return model, history

    def test_freeze_masks_cleared_after_fit(self, fitted):
        model, _ = fitted
        assert all(p.grad_mask is None for p in model.net.parameters())

    def test_history_has_all_stages(self, fitted):
        _, history = fitted
        assert history.stages() == ["lower25", "lower50", "lower75", "lower100"]


@pytest.mark.slow
class TestLearnedBehaviour:
    @pytest.fixture(scope="class")
    def model(self, tiny_data):
        """One two-epoch fit, shared by the assertions below."""
        train, _ = tiny_data
        model = build_model("dynamic", rng=make_rng(0))
        IncrementalTrainer().fit(model, train, TrainConfig(epochs=2, lr=0.05), rng=make_rng(1))
        return model

    def test_all_lower_subnets_beat_chance(self, model, tiny_data):
        _, test = tiny_data
        for name in ("lower25", "lower50", "lower75", "lower100"):
            assert model.evaluate(name, test) > 0.4, name

    def test_upper_subnets_remain_untrained(self, model, tiny_data):
        """The Dynamic DNN's defining failure: its upper slices are useless
        standalone (paper Fig. 1c)."""
        _, test = tiny_data
        assert model.evaluate("upper50", test) < 0.4
