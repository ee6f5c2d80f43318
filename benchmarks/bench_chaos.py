"""Self-healing under chaos, driven by the scripted incidents in
:mod:`repro.faults.scenarios`.

1. **Live incident** (measured, never committed) — ``bursts_faulty``
   replayed against a real four-replica *process* pool with
   ``supervise=True``: replicas 1 and 2 are SIGKILLed mid-burst and
   replica 3 stalls for a window.  ``--smoke`` asserts what only a live
   run can show: **zero** lost requests, every crashed worker respawned
   (no tripped restart budget), the pool back at full capacity.  The
   crash-to-rejoin seconds are printed and written to
   ``benchmarks/out/chaos.json``, never gated.

2. **Deterministic chaos simulation** — the same incident through
   :meth:`~repro.trace.replay.TraceReplayer.simulate` (virtual time), run
   twice; outcome counts and whether the two artifacts were byte-identical.

3. **Brown-out comparison** — ``multi_tenant_faulty`` on two replicas in
   the simulator, with and without a
   :class:`~repro.faults.policy.BrownoutPolicy`: the critical-priority
   miss rate of each.

Parts 2 and 3 are ``BENCH_chaos.json``: pure functions of the code, which
tier-1 (``tests/test_benchmarks.py``) regenerates through
:func:`record_payload`, compares ``==`` with the committed file, and
asserts the facts on (byte-identical, zero lost, brown-out strictly spares
critical traffic).  Run directly to rewrite the record after a deliberate
change to the simulator (also runs and writes out the live incident)::

    PYTHONPATH=src python benchmarks/bench_chaos.py

or for the CI smoke (the live incident's facts; nothing written)::

    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke
"""

from __future__ import annotations

import json
import time

from common import ROOT, fluid_model, write_out
from repro.faults.injector import FaultInjector
from repro.faults.policy import BrownoutPolicy, RetryPolicy
from repro.faults.scenarios import FAULTY_REPLICAS, faulty_replayer
from repro.scheduler.admission import CRITICAL_PRIORITY
from repro.scheduler.frontend import SchedulerConfig, ServingFrontend
from repro.trace.recorder import OK, TraceRecorder
from repro.trace.replay import summarize_outcomes
from repro.trace.tracer import EVENT_FAULT, EVENT_RESPAWN, Tracer

RECORD_PATH = ROOT / "BENCH_chaos.json"

LIVE_SCENARIO = "bursts_faulty"
BROWNOUT_SCENARIO = "multi_tenant_faulty"
BROWNOUT_REPLICAS = 2
BROWNOUT_POLICY = BrownoutPolicy(enter_queue_depth=8, exit_queue_depth=2)

#: How long the bench waits for the pool to heal after the trace drains.
RECOVERY_TIMEOUT_S = 30.0


# -- live incident ------------------------------------------------------------


def live_chaos_facts(model=None) -> dict:
    """The acceptance incident against a real supervised process pool."""
    model = model or fluid_model()
    replayer = faulty_replayer(LIVE_SCENARIO)
    tracer = Tracer(sampling=1.0)
    config = SchedulerConfig(
        replicas=FAULTY_REPLICAS,
        replica_backend="process",
        supervise=True,
        retry_policy=RetryPolicy(),
    )
    frontend = ServingFrontend(model, config, tracer=tracer)
    injector = FaultInjector(frontend, replayer.faults)
    try:
        records = replayer.drive(
            frontend, getattr(model, "net", model), injector=injector
        )
        # The trace drained; now wait (bounded) for the supervisor to
        # finish returning crashed workers to routing.
        recovered = False
        deadline = time.monotonic() + RECOVERY_TIMEOUT_S
        while time.monotonic() < deadline:
            if len(frontend.pool.healthy()) == FAULTY_REPLICAS:
                recovered = True
                break
            time.sleep(0.01)
        report = frontend.report()
    finally:
        injector.stop()
        frontend.close()
    events = tracer.events()
    crash_t = [
        e.t_s for e in events
        if e.kind == EVENT_FAULT and e.data.get("fault") == "crash"
    ]
    respawn_t = [e.t_s for e in events if e.kind == EVENT_RESPAWN]
    summary = summarize_outcomes(records, replayer.duration_s)
    supervisor = report["supervisor"]
    return {
        "scenario": LIVE_SCENARIO,
        "replicas": FAULTY_REPLICAS,
        "backend": "process",
        "faults": replayer.faults.to_json(),
        "requests": summary["requests"],
        "outcomes": summary["outcomes"],
        "lost": summary["lost"],
        "miss_rate": summary["miss_rate"],
        "goodput_rps": summary["goodput_rps"],
        "crashes": len(crash_t),
        "respawns": supervisor["respawns"],
        "gave_up": supervisor["gave_up"],
        "recovered_full_capacity": recovered,
        "recovery_s": (
            max(respawn_t) - min(crash_t) if respawn_t and crash_t else None
        ),
    }


def check_live_incident(facts: dict) -> None:
    """Zero lost + every crashed worker respawned + full capacity back."""
    assert facts["lost"] == 0, (
        f"supervised frontend lost {facts['lost']} requests: {facts['outcomes']}"
    )
    assert facts["crashes"] == 2, f"expected 2 crash injections: {facts}"
    assert facts["respawns"] >= facts["crashes"], (
        f"supervisor respawned {facts['respawns']} < {facts['crashes']} crashes"
    )
    assert facts["gave_up"] == [], (
        f"restart budget tripped for replicas {facts['gave_up']}"
    )
    assert facts["recovered_full_capacity"], (
        f"pool never returned to {facts['replicas']} healthy replicas"
    )
    assert sum(facts["outcomes"].values()) == facts["requests"]


# -- deterministic chaos simulation -------------------------------------------


def sim_chaos_facts(model=None) -> dict:
    """The same incident in virtual time: byte-determinism + outcome facts."""
    model = model or fluid_model()
    config = SchedulerConfig(replicas=FAULTY_REPLICAS, warmup=False)
    dumps, result = [], None
    for _ in range(2):
        replayer = faulty_replayer(LIVE_SCENARIO)
        recorder = TraceRecorder(kind="simulated", meta=replayer.meta)
        result = replayer.simulate(model, config, recorder=recorder)
        dumps.append(recorder.dumps())
    return {
        "scenario": LIVE_SCENARIO,
        "replicas": FAULTY_REPLICAS,
        "requests": result["requests"],
        "outcomes": result["outcomes"],
        "lost": result["lost"],
        "miss_rate": result["miss_rate"],
        "goodput_rps": result["goodput_rps"],
        "byte_identical": dumps[0] == dumps[1],
    }


# -- brown-out comparison -----------------------------------------------------


def _critical_miss_rate(replayer, result) -> float:
    critical = {
        s.request_id for s in replayer.specs
        if s.priority >= CRITICAL_PRIORITY
    }
    records = [r for r in result["records"] if r["request_id"] in critical]
    misses = sum(1 for r in records if r["outcome"] != OK)
    return misses / len(records) if records else 0.0


def brownout_facts(model=None) -> dict:
    """Brown-out vs serve-everyone on the grey-failure incident (sim)."""
    model = model or fluid_model()

    def _run(brownout):
        replayer = faulty_replayer(BROWNOUT_SCENARIO)
        config = SchedulerConfig(
            replicas=BROWNOUT_REPLICAS, warmup=False, brownout=brownout
        )
        result = replayer.simulate(model, config)
        return {
            "critical_miss_rate": _critical_miss_rate(replayer, result),
            "miss_rate": result["miss_rate"],
            "outcomes": result["outcomes"],
            "lost": result["lost"],
        }

    baseline = _run(None)
    browned = _run(BROWNOUT_POLICY)
    return {
        "scenario": BROWNOUT_SCENARIO,
        "replicas": BROWNOUT_REPLICAS,
        "policy": {
            "enter_queue_depth": BROWNOUT_POLICY.enter_queue_depth,
            "exit_queue_depth": BROWNOUT_POLICY.exit_queue_depth,
        },
        "baseline": baseline,
        "brownout": browned,
        "critical_miss_improvement": (
            baseline["critical_miss_rate"] - browned["critical_miss_rate"]
        ),
    }


# -- driver -------------------------------------------------------------------


def record_payload(model=None) -> dict:
    """``BENCH_chaos.json`` as data: the two virtual-time parts."""
    model = model or fluid_model()
    return {
        "benchmark": "benchmarks/bench_chaos.py",
        "sim": sim_chaos_facts(model),
        "brownout": brownout_facts(model),
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the live incident and assert its facts; write nothing",
    )
    args = parser.parse_args(argv)
    model = fluid_model()
    if not args.smoke:
        payload = record_payload(model)
        RECORD_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RECORD_PATH}")
        sim, brownout = payload["sim"], payload["brownout"]
        print(
            f"  sim   {sim['requests']:4d} requests  lost {sim['lost']}  "
            f"byte-identical {sim['byte_identical']}"
        )
        print(
            f"  brown-out critical miss "
            f"{brownout['brownout']['critical_miss_rate']:.4f} vs baseline "
            f"{brownout['baseline']['critical_miss_rate']:.4f} "
            f"(improvement {brownout['critical_miss_improvement']:+.4f})"
        )
    live = live_chaos_facts(model)
    recovery = live["recovery_s"]
    print(
        f"  live  {live['requests']:4d} requests  lost {live['lost']}  "
        f"respawns {live['respawns']}/{live['crashes']} crashes  "
        f"recovery {'n/a' if recovery is None else f'{recovery:.2f}s'}"
    )
    check_live_incident(live)
    if args.smoke:
        print("smoke OK")
    else:
        print(f"wrote {write_out('chaos', {'live': live})}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
