"""Nested incremental training — the paper's Algorithm 1.

Per iteration:

1. (lines 2–5) Train the base Dynamic DNN incrementally over the lower
   family ``25% → 50% → 75% → 100%``, freezing previously trained regions
   within the iteration.
2. (lines 6–10) Train the *nested* Dynamic DNN — the upper sub-networks
   (``upper 25% → upper 50%``) — incrementally, so they become usable
   standalone.  "Copy corresponding weights from the 100% model" and "copy
   the re-trained weights back" are no-ops under shared weight storage: the
   upper views literally alias the 100% model's upper blocks, which is the
   same weight-reuse the paper describes.

Because retraining the upper blocks perturbs the combined 75%/100% models,
the whole schedule is repeated for ``niters`` iterations with a decayed
learning rate ("Reusing the weights ... is nontrivial; therefore, we
fine-tune all the models for multiple iterations").

Every stage runs through the stateless context API (one
:class:`~repro.nn.context.ForwardContext` per optimisation step inside
:class:`~repro.training.trainer.Trainer`), so interleaving lower and upper
views over the shared store never leaves activation state behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.base import ModelFamily
from repro.slimmable.masks import RegionTracker
from repro.training.history import History
from repro.training.revival import revive_dead_channels
from repro.training.trainer import TrainConfig, Trainer
from repro.utils.rng import check_rng


@dataclass(frozen=True)
class NestedTrainConfig:
    """Hyper-parameters for Algorithm 1.

    Args:
        base: per-stage config for the lower-family pass.
        upper: per-stage config for the upper-family pass (defaults to
            ``base`` with a halved learning rate — the upper pass is a
            fine-tune of weights that already work in combined mode).
        niters: Algorithm 1's outer iteration count.
        lr_decay: learning-rate multiplier applied per outer iteration.
        revive_dead_units: re-initialise dead (all-zero ReLU) trainable
            channels before each upper stage.  Required for the paper's
            tiny model: base training can kill upper-block channels that a
            standalone upper sub-network then cannot recover by gradient
            descent (see :mod:`repro.training.revival`).
    """

    base: TrainConfig = TrainConfig()
    upper: Optional[TrainConfig] = None
    niters: int = 2
    lr_decay: float = 0.5
    revive_dead_units: bool = True

    def __post_init__(self) -> None:
        if self.niters <= 0:
            raise ValueError("niters must be positive")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")

    def upper_config(self) -> TrainConfig:
        return self.upper if self.upper is not None else self.base.scaled_lr(0.5)


class NestedIncrementalTrainer:
    """Implements Algorithm 1 over a Fluid DyDNN."""

    def __init__(self) -> None:
        self.trainer = Trainer()

    def fit(
        self,
        model: ModelFamily,
        train_set: ArrayDataset,
        config: NestedTrainConfig,
        *,
        rng: np.random.Generator,
        val_set: Optional[ArrayDataset] = None,
    ) -> History:
        check_rng(rng, "NestedIncrementalTrainer.fit")
        net = model.net
        history = History()

        for iteration in range(config.niters):
            decay = config.lr_decay**iteration
            base_cfg = config.base.scaled_lr(decay)
            upper_cfg = config.upper_config().scaled_lr(decay)
            prefix = f"iter{iteration}/"

            # Lines 2-5: incremental pass over the lower family.  The freeze
            # tracker is reset per iteration so each fine-tuning round may
            # re-touch every region while preserving incremental ordering
            # inside the round.
            tracker = RegionTracker()
            for spec in model.width_spec.lower_family():
                net.apply_freeze(spec, tracker)
                history.extend(
                    self.trainer.fit(
                        net.view(spec),
                        train_set,
                        base_cfg,
                        rng=rng,
                        val_set=val_set,
                        stage=f"{prefix}{spec.name}",
                    )
                )
                self._mark(net, spec, tracker)

            # Lines 6-10: incremental pass over the upper family.  Weight
            # copy-in/copy-out is implicit (views alias the shared store).
            upper_tracker = RegionTracker()
            for spec in model.width_spec.upper_family():
                if config.revive_dead_units:
                    probe, _ = train_set[np.arange(min(128, len(train_set)))]
                    revive_dead_channels(net, spec, probe, rng, upper_tracker)
                net.apply_freeze(spec, upper_tracker)
                history.extend(
                    self.trainer.fit(
                        net.view(spec),
                        train_set,
                        upper_cfg,
                        rng=rng,
                        val_set=val_set,
                        stage=f"{prefix}{spec.name}",
                    )
                )
                self._mark(net, spec, upper_tracker)

        net.clear_freeze()
        return history

    def _mark(self, net, spec, tracker: RegionTracker) -> None:
        for param, region in net.region_masks(spec):
            if param is net.classifier.bias:
                continue
            tracker.mark(param, region)
