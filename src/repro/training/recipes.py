"""The training recipe: the paper's Algorithm 1 for the slimmable families,
full-width training for the Static DNN.

Per iteration ``i`` of Algorithm 1, at learning rate ``LR * LR_DECAY**i``:

1. (lines 2–5, the Dynamic DNN's incremental training, paper ref [3])
   Train the lower family ``25% → 50% → 75% → 100%`` smallest-first.  After
   a stage completes every weight it touched is frozen (per-parameter
   masks), so the next, wider stage only trains its newly added channel
   group.  "Copy trained weights to the next model" is a no-op: sub-network
   views alias one shared weight store.
2. (lines 6–10) Train the upper family ``upper 25% → upper 50%`` the same
   way at ``UPPER_LR_SCALE`` of the iteration's rate, so the upper slices
   become usable standalone.  Only the upper sub-networks the family
   certifies standalone are trained: all of them for the Fluid DyDNN, none
   for the Dynamic DNN, so one schedule serves both.  "Copy corresponding
   weights from / back to the 100% model" is again aliasing.  Dead units
   are revived before each upper stage (:mod:`repro.training.revival`).

Retraining the upper blocks perturbs the combined 75%/100% models, so the
whole schedule repeats for ``niters`` iterations ("we fine-tune all the
models for multiple iterations").  The classifier bias stays trainable
across stages (the head is shared by all sub-networks).  The Static DNN
trains its full width for the lower pass's epoch budget, so accuracy
comparisons are fair.  Deterministic per seed: the rng is consumed by the
model's init, then per stage by revival and the shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.base import ModelFamily
from repro.models.zoo import build_model
from repro.slimmable.masks import RegionTracker
from repro.training.history import History
from repro.training.revival import revive_dead_channels
from repro.training.trainer import fit_stage

LR = 0.05
#: Learning-rate multiplier per Algorithm 1 iteration.
LR_DECAY = 0.5
#: The upper pass fine-tunes weights that already work in combined mode.
UPPER_LR_SCALE = 0.5


@dataclass(frozen=True)
class RecipeConfig:
    """Epochs per stage, and Algorithm 1's iteration count."""

    epochs: int
    niters: int

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.niters <= 0:
            raise ValueError("niters must be positive")


def incremental_pass(
    model: ModelFamily,
    train_set: ArrayDataset,
    epochs: int,
    iteration: int,
    *,
    rng: np.random.Generator,
    val_set: Optional[ArrayDataset] = None,
) -> History:
    """One iteration of Algorithm 1: the lower pass, then the upper pass over
    the upper sub-networks ``model`` certifies standalone.  Leaves no freeze
    mask behind."""
    net = model.net
    decay = LR_DECAY**iteration
    uppers = [
        spec for spec in model.width_spec.upper_family()
        if model.is_standalone_certified(spec.name)
    ]
    history = History()
    for family, lr, revive in (
        (model.width_spec.lower_family(), LR * decay, False),
        (uppers, (LR * UPPER_LR_SCALE) * decay, True),
    ):
        # Freezing orders the stages inside one pass; each pass (and each
        # iteration) may re-touch every region.
        tracker = RegionTracker()
        for spec in family:
            if revive:
                probe, _ = train_set[np.arange(min(128, len(train_set)))]
                revive_dead_channels(net, spec, probe, rng, tracker)
            net.apply_freeze(spec, tracker)
            history.extend(fit_stage(
                net.view(spec), train_set, epochs, lr,
                rng=rng, val_set=val_set, stage=f"iter{iteration}/{spec.name}",
            ))
            for param, region in net.region_masks(spec):
                if param is not net.classifier.bias:
                    tracker.mark(param, region)
    net.clear_freeze()
    return history


def train_incremental(
    model: ModelFamily,
    train_set: ArrayDataset,
    config: RecipeConfig,
    *,
    rng: np.random.Generator,
    val_set: Optional[ArrayDataset] = None,
) -> History:
    """Algorithm 1: ``config.niters`` incremental passes over one rng stream."""
    history = History()
    for iteration in range(config.niters):
        history.extend(incremental_pass(
            model, train_set, config.epochs, iteration, rng=rng, val_set=val_set
        ))
    return history


def train_family(
    family: str,
    train_set: ArrayDataset,
    *,
    rng: np.random.Generator,
    config: RecipeConfig,
    val_set: Optional[ArrayDataset] = None,
) -> Tuple[ModelFamily, History]:
    """Build and train one family (``static|dynamic|fluid``)."""
    model = build_model(family, rng=rng)
    if family != "static":
        return model, train_incremental(model, train_set, config, rng=rng, val_set=val_set)
    epochs = config.epochs * len(model.width_spec.lower_family()) * config.niters
    history = fit_stage(
        model.full_view(), train_set, epochs, LR, rng=rng, val_set=val_set, stage="static/full"
    )
    return model, history
