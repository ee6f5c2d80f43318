"""Tests for incremental training's lower pass (the Dynamic DNN recipe, paper ref [3])."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.data.synth_mnist import IMAGE_SIZE
from repro.models.zoo import build_model
from repro.training import recipes
from repro.training.history import History
from repro.training.recipes import (
    LR,
    LR_DECAY,
    UPPER_LR_SCALE,
    RecipeConfig,
    incremental_pass,
    train_incremental,
)
from repro.utils.rng import make_rng


class TestPassSchedule:
    """Which stages one pass runs, in which order, at which rate; the stage
    itself is stubbed out."""

    @pytest.mark.parametrize(
        "family,uppers",
        [("dynamic", ()), ("fluid", ("upper25", "upper50"))],
        ids=["dynamic", "fluid"],
    )
    def test_stages_and_rates_of_a_second_iteration(self, family, uppers, monkeypatch):
        calls = []

        def record_stage(view, train_set, epochs, lr, *, rng, val_set, stage):
            calls.append((stage, epochs, lr))
            return History()

        monkeypatch.setattr(recipes, "fit_stage", record_stage)
        model = build_model(family, rng=make_rng(0))
        rng = np.random.default_rng(3)
        train = ArrayDataset(rng.random((16, 1, IMAGE_SIZE, IMAGE_SIZE)), np.arange(16) % 10)
        incremental_pass(model, train, 3, 1, rng=make_rng(1))

        lower = [(f"iter1/{s}", 3, LR * LR_DECAY) for s in ("lower25", "lower50", "lower75", "lower100")]
        upper = [(f"iter1/{s}", 3, (LR * UPPER_LR_SCALE) * LR_DECAY) for s in uppers]
        assert calls == lower + upper
        assert all(p.grad_mask is None for p in model.net.parameters())


@pytest.mark.slow
class TestFreezingSemantics:
    def test_earlier_subnet_weights_frozen_in_later_stages(self, tiny_data, monkeypatch):
        """After the 25% stage completes, the 25% region must never move."""
        train, _ = tiny_data
        model = build_model("dynamic", rng=make_rng(0))
        net = model.net
        snapshots = {}
        fit_stage = recipes.fit_stage

        def snapshot_after_lower25(view, *args, stage, **kwargs):
            history = fit_stage(view, *args, stage=stage, **kwargs)
            if stage == "iter0/lower25":
                snapshots["conv0"] = net.convs[0].weight.data[:4, :1].copy()
                snapshots["conv1"] = net.convs[1].weight.data[:4, :4].copy()
                snapshots["fc_cols"] = net.classifier.weight.data[:, : 4 * 49].copy()
            return history

        monkeypatch.setattr(recipes, "fit_stage", snapshot_after_lower25)
        incremental_pass(model, train, 1, 0, rng=make_rng(1))

        np.testing.assert_array_equal(net.convs[0].weight.data[:4, :1], snapshots["conv0"])
        np.testing.assert_array_equal(net.convs[1].weight.data[:4, :4], snapshots["conv1"])
        np.testing.assert_array_equal(
            net.classifier.weight.data[:, : 4 * 49], snapshots["fc_cols"]
        )

    @pytest.fixture(scope="class")
    def fitted(self, tiny_data):
        """One one-epoch pass, shared by the assertions below: ``(model, history)``."""
        train, _ = tiny_data
        model = build_model("dynamic", rng=make_rng(0))
        history = incremental_pass(model, train, 1, 0, rng=make_rng(1))
        return model, history

    def test_freeze_masks_cleared_after_fit(self, fitted):
        model, _ = fitted
        assert all(p.grad_mask is None for p in model.net.parameters())

    def test_history_has_only_the_lower_stages(self, fitted):
        """The Dynamic DNN certifies no upper sub-network, so Algorithm 1
        runs no upper stage for it."""
        _, history = fitted
        assert history.stages() == [f"iter0/{s}" for s in ("lower25", "lower50", "lower75", "lower100")]


@pytest.mark.slow
class TestLearnedBehaviour:
    @pytest.fixture(scope="class")
    def model(self, tiny_data):
        """One two-epoch pass, shared by the assertions below."""
        train, _ = tiny_data
        model = build_model("dynamic", rng=make_rng(0))
        train_incremental(model, train, RecipeConfig(epochs=2, niters=1), rng=make_rng(1))
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
