"""The autotuner's search space: what varies, what is derived, and why.

The virtual-time simulator (:meth:`repro.trace.replay.TraceReplayer.simulate`)
is the tuner's fitness function, so the space splits in two:

* **Searched dimensions** are the knobs the sim's outcome stream actually
  depends on — replica count, micro-batch ceiling and flush delay,
  admission headroom, and the brown-out entry depth.  These are
  enumerated as a grid and scored.

* **Carried dimensions** (hedge ratio, retry backoff, supervisor restart
  backoff) shape *live* behaviour the sim abstracts away — hedging and
  retries don't exist in virtual time, and the supervisor's respawn is an
  analytic constant.  The successive-halving refine stage still
  enumerates them (so the loop discriminates the moment the sim learns to
  model them), but today their sim fitness ties and the deterministic
  tie-break keeps the first — i.e. default — variant.

* **Derived dimensions** (ladder rungs, conv backend per rung) don't
  change sim outcomes either, but unlike the carried knobs they have an
  offline answer: rungs come from the winner's simulated batch-rows
  histogram, and each rung's conv lowering follows a rule of mechanism —
  shifted-GEMM computes the rung's full row extent whatever the batch
  holds, so it pays only on well-filled (large) rungs; small rungs keep
  the bitwise im2col default.  See :func:`rungs_from_histogram` /
  :func:`backends_for_rungs`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Tuple

#: Mapping keys of the carried (sim-fitness-neutral) refine dimensions —
#: the keys :meth:`SearchSpace.refine_variants` varies.  The tuner's zoo
#: validation memoizes by everything *except* these, since variants
#: differing only here simulate identically.
CARRIED_KEYS = ("hedge_ratio", "restart_backoff_s", "retry")

#: Rung ceiling at and above which a derived ladder assigns shifted-GEMM.
#: The lowering computes the rung's full row extent whatever the batch
#: holds, so it can only pay on rungs traffic fills; where the crossover
#: actually sits is **unmeasured** (ROADMAP item 3) — 8 is a placeholder,
#: not a recorded number.
SHIFTED_GEMM_MIN_ROWS = 8


@dataclass(frozen=True)
class SearchSpace:
    """The grid of searched (and refine-stage carried) candidate values.

    ``brownout_enter_depth`` uses ``None`` for "no brown-out"; a depth
    engages a :class:`~repro.faults.policy.BrownoutPolicy` entering at
    that queue depth (exiting at a quarter of it).
    """

    replicas: Tuple[int, ...] = (2, 3, 4)
    max_batch: Tuple[int, ...] = (8, 16, 32)
    max_delay_s: Tuple[float, ...] = (0.0005, 0.001, 0.002)
    admission_headroom: Tuple[float, ...] = (1.0, 1.25)
    brownout_enter_depth: Tuple[Optional[int], ...] = (None, 32, 64)
    # Refine-stage carried knobs (fitness-neutral in the sim; see module
    # docstring).  First value of each is the default the tie-break keeps.
    hedge_ratio: Tuple[float, ...] = (0.1, 0.2)
    retry: Tuple[bool, ...] = (True, False)
    restart_backoff_s: Tuple[float, ...] = (0.05, 0.02)

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
        """A reduced grid for tests and bench smokes (12 coarse candidates)."""
        return cls(
            replicas=(2, 4),
            max_batch=(16, 32),
            max_delay_s=(0.0005, 0.001),
            admission_headroom=(1.0,),
            brownout_enter_depth=(None, 64),
            hedge_ratio=(0.1,),
            retry=(True,),
            restart_backoff_s=(0.05,),
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

    def refine_variants(self, mapping: Mapping[str, object]) -> List[Dict[str, object]]:
        """One survivor expanded over the carried knobs (see module docstring)."""
        out: List[Dict[str, object]] = []
        for hedge_ratio, retry, backoff in itertools.product(
            self.hedge_ratio, self.retry, self.restart_backoff_s
        ):
            variant = dict(mapping)
            variant["hedge_ratio"] = hedge_ratio
            variant["retry"] = retry
            variant["restart_backoff_s"] = backoff
            out.append(variant)
        return out


def rungs_from_histogram(
    histogram: Mapping[int, int], max_batch: int
) -> Optional[Tuple[int, ...]]:
    """Ladder rungs from a flushed-batch rows histogram: p50/p90 ceilings.

    Returns a rows_ladder whose top rung is ``max_batch`` (the
    :func:`~repro.nn.plan.normalize_rows_ladder` contract), or None when
    the histogram is empty or every percentile lands on the ceiling — a
    single max_batch plan then serves everything, and a ladder would only
    buy duplicate arenas.
    """
    rows = sorted(int(r) for r in histogram)
    if not rows:
        return None
    total = sum(histogram[r] for r in histogram)

    def percentile(p: float) -> int:
        acc = 0
        for r in rows:
            acc += histogram[r]
            if acc >= p * total:
                return r
        return rows[-1]

    rungs = {min(percentile(0.5), max_batch), min(percentile(0.9), max_batch)}
    rungs.discard(max_batch)
    if not rungs:
        return None
    return tuple(sorted(rungs)) + (max_batch,)


def backends_for_rungs(rungs: Tuple[int, ...]) -> Tuple[Tuple[int, str], ...]:
    """Per-rung conv lowering: im2col below :data:`SHIFTED_GEMM_MIN_ROWS`."""
    return tuple(
        (rows, "im2col" if rows < SHIFTED_GEMM_MIN_ROWS else "shifted-gemm")
        for rows in rungs
    )
