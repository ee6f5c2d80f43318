"""Scenario-zoo trace replay: the pinned corpus, its virtual-time facts,
and a traced-vs-untraced live replay.

1. **Pinned corpus** — every scenario-zoo trace under
   ``benchmarks/traces/*.jsonl`` is the byte output of its seeded
   generator (``--write-corpus`` regenerates the files).

2. **Deterministic simulation** — each scenario replayed through
   :meth:`~repro.trace.replay.TraceReplayer.simulate` (virtual time, no
   wall clock anywhere): per-scenario miss-rate / goodput / p99 and the
   cross-scenario miss-rate ordering.

Parts 1 and 2 are ``BENCH_trace_replay.json`` (corpus digests + scenario
facts): a pure function of the code, which tier-1
(``tests/test_benchmarks.py``) regenerates through :func:`record_payload`
and compares ``==`` with the committed file — drift means the generators
or the scheduler's *decision logic* changed, not that a runner was noisy.
Tier-1 also byte-compares the corpus files and asserts simulation
determinism.

3. **Live replay, traced vs untraced** (measured, never committed) — the
   ``bursts`` scenario through a real
   :class:`~repro.scheduler.frontend.ServingFrontend` with and without a
   full-sampling :class:`~repro.trace.tracer.Tracer`.  Open-loop goodput
   only bounds tracing's cost from above (an open-loop driver hides CPU
   overhead until it saturates); the measured cost is ``benchmarks/e2e``'s
   ``bench.span_overhead_share`` and ``trace.tracer.emit_ns``.  ``--smoke``
   asserts what the live run must show — every request resolved, no trace
   event dropped — and prints the goodput pair.

Run directly to rewrite the record (and the corpus) after a deliberate
change, or::

    PYTHONPATH=src python benchmarks/bench_trace_replay.py --smoke
    PYTHONPATH=src python benchmarks/bench_trace_replay.py --write-corpus
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from common import ROOT, fluid_model, write_out
from repro.scheduler.frontend import SchedulerConfig
from repro.trace.recorder import write_trace
from repro.trace.replay import TraceReplayer
from repro.trace.scenarios import SCENARIOS
from repro.trace.tracer import Tracer

RECORD_PATH = ROOT / "BENCH_trace_replay.json"
CORPUS_DIR = ROOT / "benchmarks" / "traces"

REPLICAS = 2
LIVE_SCENARIO = "bursts"


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / f"{name}.jsonl"


def corpus_text(name: str) -> str:
    """The canonical artifact bytes for one scenario (via a temp file, so
    pinned-corpus comparison exercises the exact writer a user would)."""
    spec = SCENARIOS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trace(Path(tmp) / "t.jsonl", spec.generate(), meta=spec.meta())
        return path.read_text()


def write_corpus() -> None:
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for name in SCENARIOS:
        corpus_path(name).write_text(corpus_text(name))


def sim_facts(model=None) -> dict:
    """Per-scenario deterministic simulation facts (what the record pins)."""
    model = model or fluid_model()
    facts = {}
    for name in SCENARIOS:
        result = TraceReplayer.from_scenario(name).simulate(
            model, SchedulerConfig(replicas=REPLICAS)
        )
        facts[name] = {
            "requests": result["requests"],
            "outcomes": result["outcomes"],
            "widths": result["widths"],
            "miss_rate": result["miss_rate"],
            "goodput_rps": result["goodput_rps"],
            "p99_s": result["latency"]["p99_s"],
        }
    return facts


def record_payload(model=None) -> dict:
    """``BENCH_trace_replay.json`` as data, from the generators and the
    simulator alone (the committed corpus files are not read)."""
    facts = sim_facts(model)
    return {
        "benchmark": "benchmarks/bench_trace_replay.py",
        "replicas": REPLICAS,
        "corpus": {
            name: {
                "file": f"benchmarks/traces/{name}.jsonl",
                "requests": facts[name]["requests"],
                "sha256": hashlib.sha256(corpus_text(name).encode()).hexdigest(),
            }
            for name in SCENARIOS
        },
        "scenarios": facts,
        "miss_rate_ordering": sorted(
            facts, key=lambda name: (facts[name]["miss_rate"], name)
        ),
    }


def live_traced_vs_untraced(model=None) -> dict:
    """One live replay each way; goodput, outcomes and the tracer's counters."""
    model = model or fluid_model()
    replayer = TraceReplayer.from_scenario(LIVE_SCENARIO)
    config = SchedulerConfig(replicas=REPLICAS)
    untraced = replayer.replay(model, config)
    tracer = Tracer(sampling=1.0)
    traced = replayer.replay(model, config, tracer=tracer)
    return {
        "scenario": LIVE_SCENARIO,
        "requests": traced["requests"],
        "outcomes_untraced": untraced["outcomes"],
        "outcomes_traced": traced["outcomes"],
        "goodput_untraced_rps": untraced["goodput_rps"],
        "goodput_traced_rps": traced["goodput_rps"],
        "tracer": tracer.stats(),
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the traced/untraced live replay and assert its facts; write nothing",
    )
    parser.add_argument(
        "--write-corpus", action="store_true",
        help="regenerate benchmarks/traces/*.jsonl and exit",
    )
    args = parser.parse_args(argv)
    if args.write_corpus:
        write_corpus()
        for name in SCENARIOS:
            print(f"wrote {corpus_path(name)}")
        return 0
    model = fluid_model()
    if not args.smoke:
        write_corpus()
        payload = record_payload(model)
        RECORD_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RECORD_PATH} (+ pinned corpus under {CORPUS_DIR})")
        for name in payload["miss_rate_ordering"]:
            fact = payload["scenarios"][name]
            p99 = fact["p99_s"]
            p99_s = f"{1e3 * p99:6.1f}ms" if p99 is not None else "   n/a"
            print(
                f"  {name:13s} {fact['requests']:4d} requests  "
                f"miss-rate {fact['miss_rate']:.3f}  "
                f"goodput {fact['goodput_rps']:7.1f} req/s  p99 {p99_s}"
            )
    live = live_traced_vs_untraced(model)
    print(
        f"  live {live['scenario']}: goodput traced "
        f"{live['goodput_traced_rps']:.1f} vs untraced "
        f"{live['goodput_untraced_rps']:.1f} req/s "
        f"({live['tracer']['emitted']} events, {live['tracer']['dropped']} dropped)"
    )
    for label in ("untraced", "traced"):
        outcomes = live[f"outcomes_{label}"]
        assert sum(outcomes.values()) == live["requests"] and outcomes["lost"] == 0, (
            f"{label} live replay did not resolve every request: {outcomes}"
        )
    assert live["tracer"]["dropped"] == 0 and live["tracer"]["in_flight_requests"] == 0, (
        f"tracer dropped or leaked events: {live['tracer']}"
    )
    if args.smoke:
        print("smoke OK")
    else:
        print(f"wrote {write_out('trace_replay', {'live': live})}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
