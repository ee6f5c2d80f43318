"""End-to-end training recipes for the three model families.

These are the exact procedures the experiment harness uses: one call per
family, equalised training budget, deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.base import ModelFamily
from repro.models.dynamic_dnn import DynamicDNN
from repro.models.fluid_dydnn import FluidDyDNN
from repro.models.static_dnn import StaticDNN
from repro.models.zoo import build_model
from repro.slimmable.spec import paper_width_spec
from repro.training.history import History
from repro.training.incremental import IncrementalTrainer
from repro.training.nested_incremental import NestedIncrementalTrainer, NestedTrainConfig
from repro.training.trainer import TrainConfig, Trainer
from repro.utils.rng import check_rng


@dataclass(frozen=True)
class RecipeConfig:
    """Shared knobs for all three family recipes."""

    stage: TrainConfig = TrainConfig(epochs=2, batch_size=64, lr=0.05, momentum=0.9)
    niters: int = 2
    lr_decay: float = 0.5

    def nested(self) -> NestedTrainConfig:
        return NestedTrainConfig(
            base=self.stage, niters=self.niters, lr_decay=self.lr_decay
        )


def train_static(
    train_set: ArrayDataset,
    *,
    rng: np.random.Generator,
    config: Optional[RecipeConfig] = None,
    val_set: Optional[ArrayDataset] = None,
) -> Tuple[StaticDNN, History]:
    """Train a Static DNN: plain full-width training.

    The epoch budget is matched to the slimmable recipes' total so accuracy
    comparisons are fair (paper trains each family to convergence).
    """
    check_rng(rng, "train_static")
    cfg = config or RecipeConfig()
    model = build_model("static", paper_width_spec(), rng=rng)
    # Match the dynamic recipe's total stage count (4 lower stages x niters).
    total_epochs = cfg.stage.epochs * 4 * cfg.niters
    stage_cfg = TrainConfig(
        epochs=total_epochs,
        batch_size=cfg.stage.batch_size,
        lr=cfg.stage.lr,
        momentum=cfg.stage.momentum,
        weight_decay=cfg.stage.weight_decay,
    )
    history = Trainer().fit(
        model.full_view(), train_set, stage_cfg, rng=rng, val_set=val_set, stage="static/full"
    )
    return model, history


def train_dynamic(
    train_set: ArrayDataset,
    *,
    rng: np.random.Generator,
    config: Optional[RecipeConfig] = None,
    val_set: Optional[ArrayDataset] = None,
) -> Tuple[DynamicDNN, History]:
    """Train a Dynamic DNN with incremental training (paper ref [3]).

    Runs ``niters`` incremental passes with decayed learning rate so its
    budget matches the Fluid recipe's base phase.
    """
    check_rng(rng, "train_dynamic")
    cfg = config or RecipeConfig()
    model = build_model("dynamic", paper_width_spec(), rng=rng)
    trainer = IncrementalTrainer()
    history = History()
    for iteration in range(cfg.niters):
        stage_cfg = cfg.stage.scaled_lr(cfg.lr_decay**iteration)
        history.extend(
            trainer.fit(
                model,
                train_set,
                stage_cfg,
                rng=rng,
                val_set=val_set,
                stage_prefix=f"iter{iteration}/",
            )
        )
    return model, history


def train_fluid(
    train_set: ArrayDataset,
    *,
    rng: np.random.Generator,
    config: Optional[RecipeConfig] = None,
    val_set: Optional[ArrayDataset] = None,
) -> Tuple[FluidDyDNN, History]:
    """Train a Fluid DyDNN with nested incremental training (Algorithm 1)."""
    check_rng(rng, "train_fluid")
    cfg = config or RecipeConfig()
    model = build_model("fluid", paper_width_spec(), rng=rng)
    trainer = NestedIncrementalTrainer()
    history = trainer.fit(model, train_set, cfg.nested(), rng=rng, val_set=val_set)
    return model, history


def train_family(
    family: str,
    train_set: ArrayDataset,
    *,
    rng: np.random.Generator,
    config: Optional[RecipeConfig] = None,
    val_set: Optional[ArrayDataset] = None,
) -> Tuple[ModelFamily, History]:
    """Dispatch to the family-specific recipe (``static|dynamic|fluid``)."""
    recipes = {"static": train_static, "dynamic": train_dynamic, "fluid": train_fluid}
    if family not in recipes:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(recipes)}")
    return recipes[family](
        train_set, rng=rng, config=config, val_set=val_set
    )
