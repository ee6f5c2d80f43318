"""Training algorithms: plain, incremental [3] and nested incremental (Alg. 1)."""

from repro.training.history import EpochRecord, History
from repro.training.incremental import IncrementalTrainer
from repro.training.nested_incremental import NestedIncrementalTrainer, NestedTrainConfig
from repro.training.revival import find_dead_channels, revive_dead_channels
from repro.training.recipes import (
    RecipeConfig,
    train_dynamic,
    train_family,
    train_fluid,
    train_static,
)
from repro.training.trainer import TrainConfig, Trainer, evaluate_view

__all__ = [
    "Trainer",
    "TrainConfig",
    "evaluate_view",
    "IncrementalTrainer",
    "NestedIncrementalTrainer",
    "NestedTrainConfig",
    "find_dead_channels",
    "revive_dead_channels",
    "RecipeConfig",
    "train_static",
    "train_dynamic",
    "train_fluid",
    "train_family",
    "History",
    "EpochRecord",
]
