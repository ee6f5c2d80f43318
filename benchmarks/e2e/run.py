"""The repo's end-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Builds the system through its public API, drives one closed-loop workload,
**verifies every response** against reference logits computed outside the
window, and prints every metric by name with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``README.md`` beside this file for the
vocabulary.

A run that left its regime (a hedge, a rejection, a reroute, a narrower
width, a mode change) exits non-zero and prints no result.
"""

from __future__ import annotations

import os

# Before NumPy loads its BLAS: two replica threads already fill the two
# cores, and default BLAS threading oversubscribes them (slower *and*
# noisier: 2.4-2.8k img/s vs 3.3-3.7k pinned).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import multiprocessing
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
from multiprocessing import resource_tracker

from repro.nn.shm import unlink_created_segments

import env
import layers
import workloads
from loadgen import Window, run_closed_loop
from spans import SpanRecorder, write_jsonl
from workloads import DEADLINE_S, WORKLOADS, RegimeChanged, Workload

median = statistics.median

# The vocabulary (names and units) has one home: BENCHMARK.json.
_CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}

SEGMENTS = _CONTRACT["run_seconds"]
SETUP_PHASE_S = 6.0     # cold cycles are repeated for this long ...
SETUP_CYCLES = 15       # ... and at least this often (README: why seconds, not a count)
WARMUP_S = 2.0
SMOKE = (2, 0.0, 3, 0.5)  # --smoke: segments, set-up seconds, set-up cycles, warm-up seconds
SHORT_WARMUP_S = 0.5    # side windows, and the traced window of an already-warm system
TRACED_SEGMENTS = 8     # the traced window
UNTRACED_SEGMENTS = 6   # its untraced twin: the ungated timings and bench.span_overhead_share
ANSWER_TIMEOUT_S = 30.0


class Tally:
    """attempted / succeeded / failed, per phase."""

    def __init__(self) -> None:
        self.phases: List[Tuple[str, int, int]] = []

    def add(self, phase: str, attempted: int, succeeded: int) -> None:
        self.phases.append((phase, attempted, succeeded))
        print(f"phase {phase}: attempted {attempted} succeeded {succeeded} "
              f"failed {attempted - succeeded}")

    @property
    def attempted(self) -> int:
        return sum(a for _, a, _ in self.phases)

    @property
    def failed(self) -> int:
        return sum(a - s for _, a, s in self.phases)


# -- phases -------------------------------------------------------------------------


def setup_cycles(workload: Workload, payloads, refs, phase_s: float, at_least: int, tally: Tally) -> float:
    """Cold build -> first verified answer -> close, for ``phase_s`` seconds
    and ``at_least`` times; the median cycle.

    Seconds, not a count: this box's speed wanders by +-10% over a few
    seconds, so the median steadies with the time the cycles span, not with
    their number (25 thread-backend cycles span 0.17 s).

    Each closed system is cyclic garbage that owns its plan arenas (27.6 MB
    per frontend) until the collector runs.  Left to pile up it slows the
    later builds (b1_thread: 7 ms -> 15-19 ms after ~100 builds) and leaves
    ~50 MB in the heap under the window's ``peak_rss_mb``; so it is
    collected after every cycle, outside the timed part.  Freezing what is
    alive before the first cycle keeps that collection to the cycle's own
    garbage (0.3 ms, not 12 ms); it is undone before the window.
    """
    times, verified = [], 0
    gc.collect()
    gc.freeze()
    try:
        phase_end = time.perf_counter() + phase_s
        while len(times) < at_least or time.perf_counter() < phase_end:
            start = time.perf_counter()
            system = workloads.build(workload)
            try:
                answer = system.submit(payloads[0]).result(timeout=ANSWER_TIMEOUT_S)
                verified += int(workloads.verify(workload, answer[None], refs[:1])[0])
            finally:
                system.close()
            times.append(time.perf_counter() - start)
            del system
            gc.collect()
    finally:
        gc.unfreeze()
    tally.add("setup", len(times), verified)
    return median(times)


IMAGES_PER_S = 12000  # harness capacity: 3x today's fastest workload


class Responses:
    """Every answer of one window as rows of one array, written (so resident)
    before the window: the harness neither grows beside the program's
    ``peak_rss_mb`` nor touches fresh memory while a request waits on it."""

    def __init__(self, capacity: int, shape: Tuple[int, ...]) -> None:
        self.rows = np.full((capacity,) + shape, 0.0)  # np.zeros would leave the pages untouched
        self.raised: Dict[int, BaseException] = {}

    def keep(self, k: int, future) -> None:
        exc = future.exception()
        if exc is None:
            self.rows[k] = future.result()
        else:
            self.raised[k] = exc


def drive(system, payloads, refs, segments: int, warmup_s: float, rec=None):
    """One closed-loop window over ``system``; resource snapshots at its edges."""
    workload = system.workload
    snaps: List[env.Snapshot] = []
    capacity = int((warmup_s + segments + 1.0) * IMAGES_PER_S) // workload.rows
    responses = Responses(capacity, refs.shape[1:])
    before = None
    if rec is not None:
        inflight = getattr(system, "inflight", None)

        def before(k: int, payload) -> None:
            rec.bind(k)
            if workload.in_flight == 1:
                rec.fallback_rid = k
            if inflight is not None:
                inflight[id(payload)] = k

    window = run_closed_loop(
        system.submit, payloads,
        in_flight=workload.in_flight, rows=workload.rows,
        segments=segments, warmup_s=warmup_s, capacity=capacity,
        on_edge=lambda: snaps.append(env.snapshot()),
        before_submit=before,
        on_result=responses.keep,
    )
    return window, snaps, responses


def check(workload: Workload, window: Window, responses: Responses, refs, tally: Tally, phase: str) -> None:
    """Every stored response against its reference; late or raised = failed."""
    attempted = len(window.submitted)
    answered = np.setdiff1d(np.arange(attempted), list(responses.raised))
    equal = workloads.verify(workload, responses.rows[answered], refs[answered % len(refs)])
    latency = window.done[answered] - window.submitted[answered]
    on_time = (latency > 0.0) & (latency <= DEADLINE_S)
    tally.add(phase, attempted, int((equal & on_time).sum()))
    for k, exc in list(responses.raised.items())[:3]:
        print(f"  request {k} raised {exc!r}")


# Measured over every untraced window, gated on none: the calibration could
# not hold them within 0.10 on this box, so they are per-layer metrics.
UNGATED_TIMINGS = ("throughput_ips", "latency_p50_ms", "cpu_ms_per_img")


def window_metrics(window: Window, snaps) -> Dict[str, float]:
    first, last = snaps
    images = window.images_between(*window.edges)
    return {
        "throughput_ips": median(window.segment_throughput()),
        "latency_p50_ms": median(window.latencies_s()) * 1e3,
        "cpu_ms_per_img": (last.cpu_s - first.cpu_s) * 1e3 / images,
        "peak_rss_mb": last.peak_rss_mb,
        "env.steal_share": env.steal_share(first, last),
    }


# -- the two kinds of run -----------------------------------------------------------


def timed_run(workload: Workload, payloads, refs, args, tally: Tally):
    setup_s = setup_cycles(workload, payloads, refs, args.setup_phase_s, args.setup_cycles, tally)
    env.reset_peak_rss()
    system = workloads.build(workload)
    try:
        window, snaps, responses = drive(system, payloads, refs, args.seconds, args.warmup)
        check(workload, window, responses, refs, tally, "window")
        if workload.fails_over:
            tally.add("failover", *system.fail_worker_and_serve(payloads))
        system.check_regime()
    finally:
        system.close()
    m = window_metrics(window, snaps)
    m.update(layers.client(window))
    m["setup_s"] = setup_s
    m["ok_share"] = (tally.attempted - tally.failed) / tally.attempted
    return m, {}


def traced_run(workload: Workload, payloads, refs, args, tally: Tally):
    m = {"runtime.live.failover_served": 0.0}  # only dist_ht loses its worker
    side_of: Dict[str, str] = {}               # metric -> the side window it was read in
    probes = layers.probes()
    all_spans = []

    def traced_window(wl: Workload, inputs, expected, segments: int, phase: str, untraced: int = 0):
        system = workloads.build(wl)
        try:
            plain = None
            if untraced:
                plain, plain_snaps, answers = drive(system, inputs, expected, untraced, args.warmup)
                check(wl, plain, answers, expected, tally, f"{phase}-untraced")
                plain = window_metrics(plain, plain_snaps)
            with SpanRecorder() as rec:
                system.instrument(rec)
                window, snaps, answers = drive(system, inputs, expected, segments, SHORT_WARMUP_S, rec)
            check(wl, window, answers, expected, tally, phase)
            out = layers.traced(window, rec.spans)
            out.update(system.counters())
            if wl.fails_over:
                attempted, served = system.fail_worker_and_serve(inputs)
                tally.add(f"{phase}-failover", attempted, served)
                out["runtime.live.failover_served"] = float(served * wl.rows)
            system.check_regime()
        finally:
            system.close()
        all_spans.extend(rec.spans)
        return out, window, window_metrics(window, snaps), plain

    # Layers this workload never enters: one traced segment of a workload that does.
    for side in workloads.side_windows(workload):
        side_wl = WORKLOADS[side]
        # Enough distinct arrays that none is in flight twice (span matching is by id).
        side_inputs = workloads.make_payloads(args.seed, side_wl.rows)[: 8 * side_wl.in_flight + 24]
        side_refs = workloads.references(side_wl, side_inputs)
        seen = traced_window(side_wl, side_inputs, side_refs, 1, f"side-{side}")[0]
        seen = {k: v for k, v in seen.items() if k.startswith(workloads.SIDE_HOME[side])}
        m.update(seen)
        side_of.update(dict.fromkeys(seen, side))
    own, window, with_spans, without = traced_window(
        workload, payloads, refs, min(TRACED_SEGMENTS, args.seconds), "traced",
        untraced=min(UNTRACED_SEGMENTS, args.seconds),
    )
    m.update(own)  # the workload's own spans always win
    side_of = {name: side for name, side in side_of.items() if name not in own}
    m.update(probes)
    m.update({name: without[name] for name in UNGATED_TIMINGS})
    m.update(layers.client(window))
    m["env.steal_share"] = with_spans["env.steal_share"]
    m["bench.span_overhead_share"] = (
        with_spans["cpu_ms_per_img"] / without["cpu_ms_per_img"] - 1.0
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    written = write_jsonl(all_spans, out_dir / f"spans-{workload.name}.jsonl")
    print(f"{written} spans -> {out_dir / f'spans-{workload.name}.jsonl'}")
    return m, side_of


def reap_children() -> None:
    """Leave no process behind, and wait for each to end."""
    for child in multiprocessing.active_children():  # none expected: close() reaps workers
        child.terminate()
        child.join()
    # ``multiprocessing.shared_memory`` starts a resource-tracker process that
    # otherwise ends only after this one has (an orphan nobody waits for).
    # Empty the program's segment registry first so its atexit hook has no
    # reason to start another; the stdlib offers no public way to stop it.
    unlink_created_segments()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


# -- entry ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SEGMENTS, help="measured 1 s segments")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="2 segments, 3 set-up cycles")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    args.setup_phase_s, args.setup_cycles, args.warmup = SETUP_PHASE_S, SETUP_CYCLES, WARMUP_S
    if args.smoke:
        args.seconds, args.setup_phase_s, args.setup_cycles, args.warmup = SMOKE

    workload = WORKLOADS[args.workload]
    shape = {"segments": args.seconds, "setup_phase_s": args.setup_phase_s,
             "setup_cycles_min": args.setup_cycles, "warmup_s": args.warmup}
    print("env " + json.dumps({**env.describe(ROOT), **shape}))
    payloads = workloads.make_payloads(args.seed, workload.rows)
    refs = workloads.references(workload, payloads)
    tally = Tally()
    try:
        run = traced_run if args.trace else timed_run
        measured, side_of = run(workload, payloads, refs, args, tally)
    except RegimeChanged as exc:
        print(f"regime guard violated, no result: {exc}", file=sys.stderr)
        return 3
    finally:
        reap_children()

    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        for name in (*UNGATED_TIMINGS, "client.latency_p99_ms", "client.seg_cv", "env.steal_share"):
            print(f"note {name} = {measured[name]:.6g} {PER_LAYER[name]} (not gated)")
        print(f"note client.latency_max_ms = {measured['client.latency_max_ms']:.6g} ms (not gated)")
    metrics = {n: {"value": measured[n], "unit": u} for n, u in units.items()}
    for name, entry in metrics.items():
        side = f"  [not this workload: side window of {side_of[name]}]" if name in side_of else ""
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{side}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
