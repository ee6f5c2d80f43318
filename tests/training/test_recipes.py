"""Tests for the family training recipes (the Fig. 2 training procedures)."""

import pytest

from repro.training import recipes
from repro.training.history import History
from repro.training.recipes import LR, LR_DECAY, UPPER_LR_SCALE, RecipeConfig, train_family
from repro.utils.rng import make_rng


class TestRecipeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecipeConfig(epochs=0, niters=1)
        with pytest.raises(ValueError):
            RecipeConfig(epochs=1, niters=0)

    def test_the_learning_rates_are_the_recorded_ones(self):
        """The committed record's models were trained at these rates: the
        lower pass at 0.05, halved per iteration, the upper pass at half the
        lower pass's rate."""
        assert (LR, LR_DECAY, UPPER_LR_SCALE) == (0.05, 0.5, 0.5)


class TestRecipeBehaviour:
    """Uses the session-cached trained models; asserts the qualitative
    certification-vs-capability pattern that drives the whole paper."""

    def test_static_full_model_works(self, trained_models, tiny_data):
        _, test = tiny_data
        assert trained_models["static"].evaluate("lower100", test) > 0.5

    def test_static_slices_are_garbage(self, trained_models, tiny_data):
        """Neither the lower nor upper 25% slice of a statically trained
        model is usable — the physical reason Fig. 1b/1c shows total failure."""
        _, test = tiny_data
        model = trained_models["static"]
        assert model.evaluate("lower25", test) < 0.5

    def test_dynamic_lower_works_upper_fails(self, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["dynamic"]
        assert model.evaluate("lower50", test) > 0.4
        assert model.evaluate("upper50", test) < 0.4

    def test_fluid_everything_works(self, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["fluid"]
        for name in ("lower25", "lower50", "lower75", "lower100", "upper25", "upper50"):
            assert model.evaluate(name, test) > 0.4, name

    def test_unknown_family_rejected(self, tiny_data, tiny_recipe):
        train, _ = tiny_data
        with pytest.raises(ValueError):
            train_family("hybrid", train, rng=make_rng(0), config=tiny_recipe)


class TestBudgetFairness:
    def test_static_budget_matches_dynamic(self, tiny_data, monkeypatch):
        """Static gets the same total epoch budget the slimmable recipes
        spend on the lower pass, so accuracy comparisons are fair.  The
        stage itself is stubbed out: the claim is about the schedule."""
        train, _ = tiny_data
        calls = []

        def record_stage(view, train_set, epochs, lr, *, rng, val_set, stage):
            calls.append((stage, epochs))
            return History()

        monkeypatch.setattr(recipes, "fit_stage", record_stage)
        cfg = RecipeConfig(epochs=1, niters=2)
        train_family("static", train, rng=make_rng(0), config=cfg)
        static_epochs = sum(epochs for _, epochs in calls)
        assert [stage for stage, _ in calls] == ["static/full"]
        calls.clear()
        train_family("dynamic", train, rng=make_rng(0), config=cfg)
        lower_epochs = sum(
            epochs for stage, epochs in calls if stage.split("/")[-1].startswith("lower")
        )
        assert static_epochs == lower_epochs == 8
