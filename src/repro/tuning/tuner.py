"""Offline successive-halving autotuner over the virtual-time simulator.

``tune()`` replays one trace (a scenario-zoo stream, a recorded artifact,
or anything else a :class:`~repro.trace.replay.TraceReplayer` holds)
through candidate :class:`~repro.scheduler.frontend.SchedulerConfig`
mappings and returns the winner by **(miss rate, then goodput)** —
optionally scored with the trace's :class:`~repro.faults.plan.FaultPlan`
applied, so "best config under chaos" is the same cheap offline question.

The search is classic successive halving over the sim:

1. **Coarse**: every searched-dimension combination (seeded subsample if
   the grid exceeds :data:`MAX_CANDIDATES`) is scored on a *prefix* of the
   trace — arrivals in the first :data:`COARSE_FRAC` of the duration.
2. **Refine**: the best sixth (at least four) are re-scored on the
   **full** trace.
2b. **Validate**: finalists within :data:`MISS_TOLERANCE` of the best
   target-trace miss rate are re-ranked by mean miss across the pinned
   scenario zoo.  A hairline win on the target trace (a handful of
   requests) is statistical noise, and picking by it alone overfits —
   e.g. a long ``max_delay_s`` that coalesces two extra multi_tenant
   batches but blows every tight adversarial deadline.  The tolerance
   keeps the target trace in charge; the zoo only breaks its near-ties.
3. **Emit**: the winner's mapping — only searched knobs (see
   :mod:`repro.tuning.space`); every other knob keeps its default.  Under
   faults the emitted config also switches supervision and bounded
   retries on — a chaos-tuned config that couldn't respawn replicas would
   be self-contradictory.

Every simulation is virtual-time and every tie-break is by candidate
index, so the whole run — and the artifact serialized from it — is a
pure function of ``(trace, space, seed)``: byte-identical on every
machine.  Candidate sims are independent, so they fan out over a
fork-context process pool (sims inherit the model by fork, nothing is
pickled but the override mappings); ``workers=1`` forces the serial
path, which produces identical results by construction.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scheduler.frontend import SchedulerConfig
from repro.trace.replay import TraceReplayer
from repro.trace.scenarios import SCENARIOS
from repro.tuning.space import SearchSpace
from repro.utils.rng import derive_seed, make_rng

#: Fraction of the trace (by arrival time) the coarse stage scores.
COARSE_FRAC = 0.4

#: Coarse-grid cap; larger grids are subsampled deterministically.
MAX_CANDIDATES = 128

#: Finalists within this miss rate of the target-trace best enter the
#: zoo-validation re-rank (see the module docstring's stage 2b).
MISS_TOLERANCE = 0.01


@dataclass(frozen=True)
class Evaluation:
    """One candidate's simulated fitness."""

    index: int
    mapping: Dict[str, object]
    miss_rate: float
    goodput_rps: float
    requests: int

    @property
    def score(self) -> Tuple[float, float, int]:
        """Lexicographic fitness: miss rate, then goodput, then index.

        The index term makes ties resolve to the *first* candidate, which
        is what keeps the whole run deterministic.
        """
        return (self.miss_rate, -self.goodput_rps, self.index)

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "mapping": dict(sorted(self.mapping.items())),
            "miss_rate": self.miss_rate,
            "goodput_rps": self.goodput_rps,
            "requests": self.requests,
        }


@dataclass(frozen=True)
class TuningResult:
    """Everything ``tune()`` decided and measured."""

    trace_name: str
    seed: int
    faults: bool
    baseline: Evaluation          # default SchedulerConfig on the full trace
    winner: Evaluation            # best refine-stage candidate (full trace)
    tuned: Evaluation             # the final emitted config, re-scored
    config: SchedulerConfig       # the winner's mapping (+ chaos knobs)
    leaderboard: Tuple[Evaluation, ...]  # refine stage, best first
    stages: Dict[str, object]     # candidate counts per stage
    validation: Optional[Dict[str, object]]  # zoo re-rank facts (None if skipped)
    evaluations: int              # total simulations run

    @property
    def improved(self) -> bool:
        """Strictly better than the default config on miss rate?"""
        return self.tuned.miss_rate < self.baseline.miss_rate


# Fork-inherited evaluation context: (specs, duration_s, faults, model).
# Set by tune() immediately before the pool forks; workers read it instead
# of unpickling a model (nets hold locks and big arrays — fork is free).
_EVAL_CONTEXT: Optional[Tuple] = None


def _evaluate(task: Tuple[int, Dict[str, object], float]) -> Tuple:
    index, mapping, frac = task
    specs, duration_s, faults, model = _EVAL_CONTEXT
    if frac < 1.0:
        horizon = duration_s * frac
        specs = tuple(s for s in specs if s.arrival_s <= horizon)
        duration_s = horizon
    replayer = TraceReplayer(specs, name="tune", duration_s=duration_s)
    config = SchedulerConfig.from_mapping(mapping)
    result = replayer.simulate(model, config, fault_plan=faults)
    return index, result["miss_rate"], result["goodput_rps"], result["requests"]


def _evaluate_many(
    tasks: Sequence[Tuple[int, Dict[str, object], float]], workers: int
) -> List[Evaluation]:
    """Score candidates, results ordered by candidate index regardless of
    completion order (the parallel/serial parity contract)."""
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
        if context is not None:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(tasks)), mp_context=context
            ) as pool:
                raws = list(pool.map(_evaluate, tasks))
        else:  # no fork on this platform: fall back to the serial path
            raws = [_evaluate(task) for task in tasks]
    else:
        raws = [_evaluate(task) for task in tasks]
    out = []
    for (index, mapping, _), (ridx, miss, goodput, requests) in zip(
        tasks, sorted(raws, key=lambda r: r[0])
    ):
        assert index == ridx
        out.append(
            Evaluation(
                index=index,
                mapping=mapping,
                miss_rate=miss,
                goodput_rps=goodput,
                requests=requests,
            )
        )
    return out


def default_workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def tune(
    replayer: TraceReplayer,
    model,
    *,
    seed: int = 0,
    space: Optional[SearchSpace] = None,
    workers: Optional[int] = None,
    use_faults: bool = False,
    validate: bool = True,
) -> TuningResult:
    """Search ``space`` for the best config on ``replayer``'s trace.

    ``use_faults`` scores every candidate (and the baseline) with the
    replayer's attached fault plan injected — tuning *for* the incident.
    It requires the replayer to carry one.

    ``validate`` enables the stage-2b zoo re-rank of near-tied finalists
    (fault-free sims of the pinned scenarios — robustness across traffic
    shapes, not across incidents).  ``validate=False`` ranks purely by
    the target trace.
    """
    global _EVAL_CONTEXT
    space = space or SearchSpace()
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError("workers must be positive")
    if not replayer.specs:
        raise ValueError("cannot tune an empty trace")
    faults = None
    if use_faults:
        faults = replayer.faults
        if faults is None:
            raise ValueError(
                "use_faults requires the replayer to carry a FaultPlan "
                "(a *_faulty scenario or a recorded incident)"
            )

    coarse = space.coarse_candidates()
    grid_size = len(coarse)
    if grid_size > MAX_CANDIDATES:
        rng = make_rng(derive_seed(seed, "tuning", "subsample"))
        keep = sorted(rng.permutation(grid_size)[:MAX_CANDIDATES].tolist())
        coarse = [coarse[i] for i in keep]

    _EVAL_CONTEXT = (replayer.specs, replayer.duration_s, faults, model)
    try:
        baseline = _evaluate_many([(0, {}, 1.0)], workers=1)[0]

        coarse_evals = _evaluate_many(
            [(i, mapping, COARSE_FRAC) for i, mapping in enumerate(coarse)],
            workers,
        )
        keep_n = min(max(4, len(coarse) // 6), len(coarse_evals))
        ranked = sorted(coarse_evals, key=lambda e: e.score)[:keep_n]

        refine = [evaluation.mapping for evaluation in ranked]
        refine_evals = _evaluate_many(
            [(i, mapping, 1.0) for i, mapping in enumerate(refine)], workers
        )
        leaderboard = tuple(sorted(refine_evals, key=lambda e: e.score))
        winner = leaderboard[0]

        validation = None
        finalists = [
            e for e in leaderboard
            if e.miss_rate <= winner.miss_rate + MISS_TOLERANCE
        ]
        if validate and len(finalists) > 1:
            zoo = {
                name: TraceReplayer.from_scenario(name) for name in SCENARIOS
            }
            mean_miss: Dict[int, float] = {}
            for evaluation in finalists:
                config = SchedulerConfig.from_mapping(evaluation.mapping)
                misses = [z.simulate(model, config)["miss_rate"] for z in zoo.values()]
                mean_miss[evaluation.index] = sum(misses) / len(misses)
            winner = min(
                finalists, key=lambda e: (mean_miss[e.index],) + e.score
            )
            validation = {
                "scenarios": sorted(zoo),
                "miss_tolerance": MISS_TOLERANCE,
                "finalists": len(finalists),
                "zoo_mean_miss": {
                    str(e.index): mean_miss[e.index] for e in finalists
                },
                "winner_index": winner.index,
                "simulations": len(finalists) * len(zoo),
            }

        # Re-score the exact config we emit.
        final_mapping = dict(winner.mapping)
        if use_faults:
            # A chaos-tuned config must be able to live through the chaos:
            # supervised respawn and bounded retries are the live plane's
            # halves of what the sim models analytically.
            final_mapping["supervise"] = True
            final_mapping["retry"] = True
        tuned = _evaluate_many(
            [(winner.index, final_mapping, 1.0)], workers=1
        )[0]

        return TuningResult(
            trace_name=replayer.name,
            seed=seed,
            faults=use_faults,
            baseline=baseline,
            winner=winner,
            tuned=tuned,
            config=SchedulerConfig.from_mapping(final_mapping),
            leaderboard=leaderboard[: min(5, len(leaderboard))],
            stages={
                "grid": grid_size,
                "coarse": len(coarse),
                "coarse_frac": COARSE_FRAC,
                "survivors": keep_n,
                "refine": len(refine),
                "validated": 0 if validation is None else validation["finalists"],
            },
            validation=validation,
            evaluations=(
                1 + len(coarse_evals) + len(refine_evals) + 1
                + (0 if validation is None else validation["simulations"])
            ),
        )
    finally:
        _EVAL_CONTEXT = None
