"""Tests for nested incremental training (Algorithm 1) on the Fluid DyDNN."""

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.training.recipes import LR, LR_DECAY, UPPER_LR_SCALE, RecipeConfig, train_incremental
from repro.utils.rng import make_rng


@pytest.mark.slow
class TestAlgorithm1:
    @pytest.fixture(scope="class")
    def fluid_and_history(self, tiny_data):
        train, _ = tiny_data
        model = build_model("fluid", rng=make_rng(0))
        history = train_incremental(
            model, train, RecipeConfig(epochs=1, niters=2), rng=make_rng(1)
        )
        return model, history

    def test_stage_schedule_matches_algorithm(self, fluid_and_history):
        """Each iteration: lower 25->50->75->100, then upper 25->50."""
        _, history = fluid_and_history
        expected_per_iter = ["lower25", "lower50", "lower75", "lower100", "upper25", "upper50"]
        expected = [f"iter{i}/{s}" for i in range(2) for s in expected_per_iter]
        assert history.stages() == expected

    def test_lr_decays_across_iterations_and_halves_for_the_upper_pass(self, fluid_and_history):
        # The exact float expressions the recorded models were trained with.
        _, history = fluid_and_history
        for i in range(2):
            assert history.for_stage(f"iter{i}/lower25")[0].lr == LR * LR_DECAY**i
            assert history.for_stage(f"iter{i}/upper50")[0].lr == (LR * UPPER_LR_SCALE) * LR_DECAY**i
        assert history.for_stage("iter1/lower25")[0].lr == pytest.approx(0.025)

    def test_upper_subnets_become_usable(self, fluid_and_history, tiny_data):
        """Algorithm 1's purpose: the upper slices work standalone."""
        model, _ = fluid_and_history
        _, test = tiny_data
        assert model.evaluate("upper25", test) > 0.4
        assert model.evaluate("upper50", test) > 0.4

    def test_combined_models_still_work(self, fluid_and_history, tiny_data):
        """And the combined 75%/100% models survive the upper retraining."""
        model, _ = fluid_and_history
        _, test = tiny_data
        assert model.evaluate("lower75", test) > 0.4
        assert model.evaluate("lower100", test) > 0.4

    def test_lower_subnets_still_work(self, fluid_and_history, tiny_data):
        model, _ = fluid_and_history
        _, test = tiny_data
        assert model.evaluate("lower25", test) > 0.4
        assert model.evaluate("lower50", test) > 0.4

    def test_masks_cleared(self, fluid_and_history):
        model, _ = fluid_and_history
        assert all(p.grad_mask is None for p in model.net.parameters())


@pytest.mark.slow
class TestWeightSharingDuringTraining:
    def test_upper_training_touches_full_models_upper_blocks(self, tiny_data):
        """Algorithm 1 lines 7/9 ('copy weights from/back to the 100% model')
        hold by aliasing: the upper stage must modify the shared storage that
        the 100% model reads.

        The lower pass alone trains part of this block too (lower100 covers
        it), so the reference is the Dynamic DNN's schedule — the lower pass
        only — from the same init, data and rng: only an upper pass that
        writes the 100% model's weights can make the two runs differ."""
        train = tiny_data[0].subset(np.arange(300))
        blocks = {}
        for family in ("dynamic", "fluid"):
            model = build_model(family, rng=make_rng(0))
            history = train_incremental(model, train, RecipeConfig(epochs=1, niters=1), rng=make_rng(1))
            blocks[family] = model.net.convs[1].weight.data[8:, 8:].copy()
            assert any(stage.startswith("iter0/upper") for stage in history.stages()) == (
                family == "fluid"
            )
        assert not (blocks["dynamic"] == blocks["fluid"]).all()
