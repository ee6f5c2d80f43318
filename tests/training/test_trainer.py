"""Tests for the base trainer."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.data.synth_mnist import IMAGE_SIZE
from repro.models.zoo import build_model
from repro.training import trainer
from repro.training.trainer import BATCH_SIZE, MOMENTUM, evaluate_view, fit_stage
from repro.utils.rng import make_rng


def fit(view, train, epochs, *, rng, val_set=None):
    return fit_stage(view, train, epochs, 0.05, rng=rng, val_set=val_set, stage="train")


def noise_dataset(n: int) -> ArrayDataset:
    rng = np.random.default_rng(3)
    return ArrayDataset(rng.random((n, 1, IMAGE_SIZE, IMAGE_SIZE)), np.arange(n) % 10)


class TestFitStage:
    """``fit_stage``'s contract on a few noise images (no learning asserted)."""

    def test_a_nonpositive_lr_is_refused(self):
        model = build_model("static", rng=make_rng(0))
        for lr in (0.0, -0.05):
            with pytest.raises(ValueError):
                fit_stage(
                    model.full_view(), noise_dataset(8), 1, lr,
                    rng=make_rng(1), val_set=None, stage="s",
                )

    def test_every_epoch_is_recorded_under_the_stage_at_the_given_lr(self):
        model = build_model("static", rng=make_rng(0))
        history = fit_stage(
            model.full_view(), noise_dataset(8), 2, 0.0125,
            rng=make_rng(1), val_set=None, stage="iter1/lower25",
        )
        assert [(r.stage, r.epoch, r.lr) for r in history.records] == [
            ("iter1/lower25", 0, 0.0125), ("iter1/lower25", 1, 0.0125),
        ]
        assert all(r.val_accuracy is None for r in history.records)

    def test_steps_in_batches_of_the_recipe_size_with_the_recipe_momentum(self, monkeypatch):
        made = []

        class SpySGD(trainer.SGD):
            def __init__(self, params, lr, momentum=0.0):
                super().__init__(params, lr, momentum)
                self.steps = 0
                made.append(self)

            def step(self):
                self.steps += 1
                super().step()

        monkeypatch.setattr(trainer, "SGD", SpySGD)
        model = build_model("static", rng=make_rng(0))
        fit_stage(
            model.full_view(), noise_dataset(BATCH_SIZE + 1), 2, 0.05,
            rng=make_rng(1), val_set=None, stage="s",
        )
        (optimizer,) = made
        assert optimizer.momentum == MOMENTUM == 0.9
        assert BATCH_SIZE == 64
        assert optimizer.steps == 2 * 2  # one full batch and a one-image batch per epoch


@pytest.mark.slow
class TestFit:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_data):
        """One three-epoch fit, shared by the assertions below: ``(model, history)``."""
        train, _ = tiny_data
        model = build_model("static", rng=make_rng(0))
        history = fit(model.full_view(), train, 3, rng=make_rng(1))
        return model, history

    def test_loss_decreases(self, fitted):
        _, history = fitted
        losses = [r.train_loss for r in history.records]
        assert len(losses) == 3
        assert losses[-1] < losses[0]

    def test_beats_chance(self, fitted, tiny_data):
        model, _ = fitted
        _, test = tiny_data
        assert evaluate_view(model.full_view(), test) > 0.5

    def test_validation_accuracy_recorded(self, tiny_data):
        train, test = tiny_data
        model = build_model("static", rng=make_rng(0))
        history = fit(model.full_view(), train, 2, rng=make_rng(1), val_set=test)
        assert all(r.val_accuracy is not None for r in history.records)

    def test_deterministic_given_seeds(self, tiny_data):
        train, _ = tiny_data

        def run():
            model = build_model("static", rng=make_rng(0))
            history = fit(model.full_view(), train, 1, rng=make_rng(1))
            return history.records[-1].train_loss, model.net.state_dict()

        loss1, state1 = run()
        loss2, state2 = run()
        assert loss1 == loss2
        for key in state1:
            np.testing.assert_array_equal(state1[key], state2[key])

    def test_rng_required(self, tiny_data):
        train, _ = tiny_data
        model = build_model("static", rng=make_rng(0))
        with pytest.raises(TypeError):
            fit(model.full_view(), train, 1, rng=123)

    def test_model_left_in_eval_mode(self, tiny_data):
        train, _ = tiny_data
        model = build_model("static", rng=make_rng(0))
        view = model.full_view()
        fit(view, train, 1, rng=make_rng(1))
        assert not model.net.training
