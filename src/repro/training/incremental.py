"""Incremental training — the Dynamic DNN baseline (paper reference [3]).

Sub-networks are trained smallest-first.  After a stage completes, every
weight it touched is frozen (via per-parameter masks), so the next, wider
stage only trains its newly added channel group.  "Copy trained weights to
the next model" in the paper is a no-op here because sub-network views alias
one shared weight store.  Per-stage views carry no activation state of
their own — the trainer threads one :class:`~repro.nn.context.ForwardContext`
per step — so stages can never leak stale tape into each other.

The classifier bias is deliberately left trainable across stages (the head
is shared by all sub-networks); this matches the small accuracy drift
between sub-networks the paper reports.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.base import ModelFamily
from repro.slimmable.masks import RegionTracker
from repro.slimmable.spec import SubNetSpec
from repro.training.history import History
from repro.training.trainer import TrainConfig, Trainer
from repro.utils.rng import check_rng


class IncrementalTrainer:
    """Trains the nested lower sub-network family, freezing as it grows."""

    def __init__(self) -> None:
        self.trainer = Trainer()

    def _stage_specs(self, model: ModelFamily) -> Sequence[SubNetSpec]:
        return model.width_spec.lower_family()

    def fit(
        self,
        model: ModelFamily,
        train_set: ArrayDataset,
        config: TrainConfig,
        *,
        rng: np.random.Generator,
        val_set: Optional[ArrayDataset] = None,
        tracker: Optional[RegionTracker] = None,
        stage_prefix: str = "",
    ) -> History:
        """Run one incremental pass over the lower family (25→50→75→100)."""
        check_rng(rng, "IncrementalTrainer.fit")
        net = model.net
        tracker = tracker if tracker is not None else RegionTracker()
        history = History()
        for spec in self._stage_specs(model):
            view = net.view(spec)
            net.apply_freeze(spec, tracker)
            stage_history = self.trainer.fit(
                view,
                train_set,
                config,
                rng=rng,
                val_set=val_set,
                stage=f"{stage_prefix}{spec.name}",
            )
            history.extend(stage_history)
            self._mark(net, spec, tracker)
        net.clear_freeze()
        return history

    def _mark(self, net, spec: SubNetSpec, tracker: RegionTracker) -> None:
        for param, region in net.region_masks(spec):
            if param is net.classifier.bias:
                continue
            tracker.mark(param, region)
