"""Tests for the base trainer."""

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.training.trainer import TrainConfig, Trainer, evaluate_view
from repro.utils.rng import make_rng


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1)

    def test_scaled_lr(self):
        cfg = TrainConfig(lr=0.1).scaled_lr(0.5)
        assert cfg.lr == pytest.approx(0.05)
        with pytest.raises(ValueError):
            TrainConfig().scaled_lr(0)


@pytest.mark.slow
class TestFit:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_data):
        """One three-epoch fit, shared by the assertions below: ``(model, history)``."""
        train, _ = tiny_data
        model = build_model("static", rng=make_rng(0))
        history = Trainer().fit(
            model.full_view(),
            train,
            TrainConfig(epochs=3, lr=0.05),
            rng=make_rng(1),
        )
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
        history = Trainer().fit(
            model.full_view(), train, TrainConfig(epochs=2, lr=0.05),
            rng=make_rng(1), val_set=test,
        )
        assert all(r.val_accuracy is not None for r in history.records)

    def test_deterministic_given_seeds(self, tiny_data):
        train, _ = tiny_data

        def run():
            model = build_model("static", rng=make_rng(0))
            history = Trainer().fit(
                model.full_view(), train, TrainConfig(epochs=1, lr=0.05), rng=make_rng(1)
            )
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
            Trainer().fit(model.full_view(), train, TrainConfig(epochs=1), rng=123)

    def test_model_left_in_eval_mode(self, tiny_data):
        train, _ = tiny_data
        model = build_model("static", rng=make_rng(0))
        view = model.full_view()
        Trainer().fit(view, train, TrainConfig(epochs=1, lr=0.05), rng=make_rng(1))
        assert not model.net.training
