"""The autotuner's search space: the knobs its simulator can rank.

The virtual-time simulator (:meth:`repro.trace.replay.TraceReplayer.simulate`)
is the tuner's fitness function, so the space holds exactly the knobs the
sim's outcome stream depends on — replica count, micro-batch ceiling and
flush delay, admission headroom, and the brown-out entry depth — enumerated
as a grid and scored.

Knobs the sim cannot see are not searched: hedging, retries and the
supervisor's backoff shape only *live* behaviour (hedges and retries do not
exist in virtual time, and a respawn is an analytic constant).  Every
variant of such a knob would tie, so the tuner keeps each at the value the
default config gives it; they enter the space once the sim models them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class SearchSpace:
    """The grid of searched candidate values.

    ``brownout_enter_depth`` uses ``None`` for "no brown-out"; a depth
    engages a :class:`~repro.faults.policy.BrownoutPolicy` entering at
    that queue depth (exiting at a quarter of it).
    """

    replicas: Tuple[int, ...] = (2, 3, 4)
    max_batch: Tuple[int, ...] = (8, 16, 32)
    max_delay_s: Tuple[float, ...] = (0.0005, 0.001, 0.002)
    admission_headroom: Tuple[float, ...] = (1.0, 1.25)
    brownout_enter_depth: Tuple[Optional[int], ...] = (None, 32, 64)

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"search space dimension {f.name} is empty")
        if any(r <= 0 for r in self.replicas):
            raise ValueError("replicas must be positive")
        if any(b <= 0 for b in self.max_batch):
            raise ValueError("max_batch must be positive")
        if any(d < 0 for d in self.max_delay_s):
            raise ValueError("max_delay_s must be non-negative")

    @classmethod
    def small(cls) -> "SearchSpace":
        """A reduced grid for tests and bench smokes (16 coarse candidates)."""
        return cls(
            replicas=(2, 4),
            max_batch=(16, 32),
            max_delay_s=(0.0005, 0.001),
            admission_headroom=(1.0,),
            brownout_enter_depth=(None, 64),
        )

    def coarse_candidates(self) -> List[Dict[str, object]]:
        """Every searched-dimension combination, as config-mapping overrides.

        Deterministic order (itertools.product over the tuple fields in
        declaration order) — candidate index is the tuner's tie-break.
        """
        out: List[Dict[str, object]] = []
        for replicas, max_batch, max_delay_s, headroom, depth in itertools.product(
            self.replicas,
            self.max_batch,
            self.max_delay_s,
            self.admission_headroom,
            self.brownout_enter_depth,
        ):
            mapping: Dict[str, object] = {
                "replicas": replicas,
                "max_batch": max_batch,
                "max_delay_s": max_delay_s,
                "admission_headroom": headroom,
            }
            if depth is not None:
                mapping["brownout"] = True
                mapping["brownout.enter_queue_depth"] = depth
                mapping["brownout.exit_queue_depth"] = max(depth // 4, 1)
            out.append(mapping)
        return out
