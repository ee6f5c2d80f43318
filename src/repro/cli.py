"""Command-line interface.

Subcommands::

    python -m repro train --family fluid --out model.npz
    python -m repro evaluate --family fluid --weights model.npz
    python -m repro fig2
    python -m repro simulate --family fluid --fail worker:10 --recover worker:25
    python -m repro replay --scenario bursts --mode sim
    python -m repro replay --scenario steady_burst_kill --faults --mode live --out out.jsonl
    python -m repro replay --trace out.jsonl --mode sim
    python -m repro dist --mode ha
    python -m repro calibration

``train``, ``evaluate`` and ``fig2`` run the one recipe ``REPRO.json``
records (:mod:`repro.experiments.paper`); the other commands are
deterministic per ``--seed`` (``replay --mode live`` and ``dist`` timings
vary, their outputs do not).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.comm.latency_model import CommLatencyModel
from repro.data.synth_mnist import load_synth_mnist
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.modes import MASTER, WORKER
from repro.engine.plan import ha_plan, ht_plan, solo_plan
from repro.experiments import paper
from repro.experiments.calibration import calibration_points
from repro.experiments.paper import format_report, reproduce
from repro.faults.plan import FaultEvent, FaultPlan
from repro.models.zoo import build_model
from repro.nn.checkpoint import load_state, save_state
from repro.runtime.controller import SystemController
from repro.runtime.policy import AdaptationPolicy
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.training.recipes import train_family
from repro.utils.dtypes import resolve_dtype_policy, set_dtype_policy
from repro.utils.rng import make_rng


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The scheduler-config flags of ``replay``.

    Every flag defaults to ``None`` — "not given" — so
    :func:`config_from_args` can layer them as overrides on top of
    ``--config FILE`` on top of the subcommand's defaults.  A flag with
    an argparse default would silently override the config file instead.
    """
    parser.add_argument(
        "--config", default=None, metavar="FILE",
        help="scheduler config to start from: a repro-tuned-config artifact "
        "(replay --tune output) or a bare SchedulerConfig mapping JSON; "
        "explicit flags below override its keys",
    )
    parser.add_argument(
        "--replicas", type=int, default=None,
        help="replica pool size (shared weights, zero copies; default 2)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=None,
        help="micro-batch row ceiling per (replica, width) queue",
    )
    parser.add_argument(
        "--max-delay-ms", type=float, default=None,
        help="longest a request with company waits for batch-mates, in "
        "milliseconds (a lone request is flushed at once)",
    )
    parser.add_argument(
        "--replica-backend", choices=("thread", "process"), default=None,
        help="what a replica is: thread (shared interpreter) or process "
        "(forked workers over shared-memory weights, GIL-free)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--dtype-policy",
        choices=("float64", "float32"),
        default="float64",
        help="numeric policy: float64 reproduces the paper exactly; "
        "float32 is the inference fast path (training stays float64)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train", help="train one model family on the paper record's Fig. 2 recipe"
    )
    train.add_argument("--family", choices=("static", "dynamic", "fluid"), required=True)
    train.add_argument("--out", required=True, help="npz checkpoint output path")

    evaluate = sub.add_parser(
        "evaluate", help="evaluate a checkpoint's sub-networks on the Fig. 2 test split"
    )
    evaluate.add_argument("--family", choices=("static", "dynamic", "fluid"), required=True)
    evaluate.add_argument("--weights", required=True)

    sub.add_parser(
        "fig2",
        help="regenerate the paper record (Fig. 2 and the ablations, ~2 min) "
        "and check every claim; exits 1 on any FAIL",
    )

    simulate = sub.add_parser("simulate", help="replay a failure timeline")
    simulate.add_argument("--family", choices=("static", "dynamic", "fluid"), required=True)
    simulate.add_argument(
        "--fail", action="append", default=[], metavar="DEVICE:T",
        help="crash DEVICE at time T seconds (repeatable)",
    )
    simulate.add_argument(
        "--recover", action="append", default=[], metavar="DEVICE:T",
        help="recover DEVICE at time T seconds (repeatable)",
    )
    simulate.add_argument("--horizon", type=float, default=60.0)
    simulate.add_argument("--seed", type=int, default=0)

    replay = sub.add_parser(
        "replay",
        help="replay a scenario-zoo or recorded trace through the SLA "
        "scheduler: sim mode is deterministic virtual time, live mode "
        "drives a real frontend on the wall clock",
    )
    replay.add_argument("--scenario", default=None, help="scenario zoo name (see --list)")
    replay.add_argument(
        "--trace", default=None, metavar="FILE",
        help="trace artifact to replay (generated or recorded JSONL)",
    )
    replay.add_argument("--mode", choices=("sim", "live"), default="sim")
    replay.add_argument("--family", choices=("static", "dynamic", "fluid"), default="fluid")
    replay.add_argument("--weights", default=None, help="optional npz checkpoint to serve")
    _add_config_flags(replay)
    replay.add_argument(
        "--seed", type=int, default=0,
        help="tracer sampling seed (live mode) and tuner seed (--tune)",
    )
    replay.add_argument(
        "--sampling", type=float, default=1.0,
        help="fraction of requests traced in live mode (deterministic per request id)",
    )
    replay.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the replay's own recorded artifact here (replayable again)",
    )
    replay.add_argument(
        "--faults", nargs="?", const="auto", default=None, metavar="FILE",
        help="inject a fault plan during the replay: with no value, use the "
        "plan attached to the scenario/artifact (faulty scenarios and "
        "recorded incidents carry one); with FILE, load a serialised "
        "FaultPlan JSON.  Live mode also enables supervised respawn and "
        "bounded retries",
    )
    replay.add_argument(
        "--list", action="store_true", help="list the scenario zoo and exit",
    )
    replay.add_argument(
        "--tune", action="store_true",
        help="offline autotune instead of replaying: search SchedulerConfig "
        "space against the virtual-time simulator on this trace (with "
        "--faults: scored under the attached fault plan — best config "
        "under chaos) and write a repro-tuned-config artifact that "
        "'replay --config FILE' loads directly.  The scheduler flags above "
        "are ignored; the tuner searches its own space",
    )
    replay.add_argument(
        "--tune-out", default=None, metavar="FILE",
        help="tuned-config artifact path (default tuned_<trace>.json)",
    )
    replay.add_argument(
        "--tune-workers", type=int, default=None, metavar="N",
        help="process-pool width for candidate simulations (default: cores, "
        "capped at 4; results are identical at any width)",
    )

    dist = sub.add_parser(
        "dist",
        help="drive the distributed engine (solo/HT/HA) eager vs compiled and "
        "report wall-clock and per-round exchange bytes",
    )
    dist.add_argument("--mode", choices=("ha", "ht", "solo"), default="ha")
    dist.add_argument("--subnet", default=None, help="combined sub-network for HA (default lower100)")
    dist.add_argument("--batch", type=int, default=16)
    dist.add_argument("--batches", type=int, default=8, help="timed batches after one warmup")
    dist.add_argument("--seed", type=int, default=0)
    dist.add_argument(
        "--tcp", action="store_true",
        help="drive a subprocess worker over real TCP instead of in-process endpoints",
    )
    dist.add_argument(
        "--compiled", dest="compiled", action="store_true", default=None,
        help="run only the compiled path (default: both, with a parity check)",
    )
    dist.add_argument(
        "--eager", dest="compiled", action="store_false",
        help="run only the eager path (HA only: solo and HT streams always "
        "run each device's compiled plan)",
    )

    sub.add_parser("calibration", help="show emulated-testbed calibration vs paper")
    return parser


def _parse_events(fails: List[str], recovers: List[str]) -> FaultPlan:
    events = []
    for kind, entries in (("crash", fails), ("recover", recovers)):
        for entry in entries:
            try:
                device, t = entry.split(":")
                events.append(FaultEvent(float(t), device, kind))
            except ValueError as exc:
                raise SystemExit(f"bad --{kind} spec {entry!r} (expected DEVICE:T)") from exc
    return FaultPlan(events)


def cmd_train(args) -> int:
    """``train``: one family exactly as the paper record trains it
    (``FIG2_DATA``, ``FIG2_RECIPE``, ``FIG2_SEED``)."""
    train_set, test_set = load_synth_mnist(paper.FIG2_DATA)
    started = time.time()
    model, history = train_family(
        args.family, train_set, rng=make_rng(paper.FIG2_SEED), config=paper.FIG2_RECIPE
    )
    save_state(args.out, model.state_dict())
    print(f"trained {args.family} in {time.time() - started:.0f}s "
          f"({len(history)} stage-epochs) -> {args.out}")
    for name, acc in model.evaluate_all(test_set).items():
        print(f"  {name:10s} {acc:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    """``evaluate``: a checkpoint on ``FIG2_DATA``'s test split, which is
    drawn from its own stream whatever the train split's size."""
    _, test_set = load_synth_mnist(dataclasses.replace(paper.FIG2_DATA, num_train=1))
    model = build_model(args.family, rng=make_rng(paper.FIG2_SEED))
    model.load_state_dict(load_state(args.weights))
    print(f"{args.family} checkpoint {args.weights}:")
    for name, acc in model.evaluate_all(test_set).items():
        certified = "standalone" if model.is_standalone_certified(name) else "combined-only"
        print(f"  {name:10s} {acc:.4f}  ({certified})")
    return 0


def cmd_fig2(_args) -> int:
    """``fig2``: the paper record's recipe, report and claim list
    (``REPRO.json`` is written only by ``benchmarks/bench_paper.py``)."""
    record, verdicts = reproduce()
    print()
    print(format_report(record, verdicts))
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_simulate(args) -> int:
    schedule = _parse_events(args.fail, args.recover)
    model = build_model(args.family, rng=make_rng(args.seed))
    tm = SystemThroughputModel(
        model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )
    controller = SystemController(AdaptationPolicy(model, tm), tm)
    timeline = controller.simulate(schedule, horizon_s=args.horizon)
    for t in timeline.transitions:
        alive = ",".join(sorted(t.alive)) or "none"
        print(
            f"t={t.time_s:6.1f}s alive=[{alive:13s}] {t.plan.describe():50s} "
            f"{t.throughput.throughput_ips:5.1f} img/s"
        )
    print(f"downtime: {timeline.downtime():.1f}s of {args.horizon:.1f}s")
    return 0


def config_from_args(args, defaults=None):
    """Build the :class:`SchedulerConfig` a replay serves with.

    Three layers, lowest precedence first:

    1. ``defaults`` — the subcommand's baseline mapping (e.g. two
       replicas; supervision and retries under an injected incident),
    2. ``--config FILE`` — a tuned-config artifact or bare mapping,
    3. explicit flags — only flags actually given override; every config
       flag parses with ``default=None`` so "absent" is detectable.

    The merged mapping goes through ``SchedulerConfig.from_mapping``, the
    single validated path — there is no loose-dict construction here.
    """
    from repro.scheduler.frontend import SchedulerConfig

    mapping = dict(defaults or {})
    if args.config:
        from repro.tuning.artifact import load_config_mapping

        try:
            file_mapping = load_config_mapping(args.config)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--config: {exc}") from exc
        mapping.update(file_mapping)
    if args.replicas is not None:
        mapping["replicas"] = args.replicas
    if args.max_batch is not None:
        mapping["max_batch"] = args.max_batch
    if args.max_delay_ms is not None:
        mapping["max_delay_s"] = args.max_delay_ms / 1000.0
    if args.replica_backend is not None:
        mapping["replica_backend"] = args.replica_backend
    try:
        return SchedulerConfig.from_mapping(mapping)
    except ValueError as exc:
        raise SystemExit(f"bad scheduler config: {exc}") from exc


def cmd_replay(args) -> int:
    """``replay``: re-inject a scenario or trace artifact against the scheduler."""
    from repro.faults.scenarios import FAULTY_SCENARIOS, faulty_replayer
    from repro.trace.recorder import TraceRecorder
    from repro.trace.replay import TraceReplayer
    from repro.trace.scenarios import EXTRA_SCENARIOS, SCENARIOS
    from repro.trace.tracer import Tracer

    if args.list:
        print(f"{'scenario':20s} {'seed':>5s} {'duration':>9s} {'requests':>9s}  generator")
        for name, spec in {**SCENARIOS, **EXTRA_SCENARIOS}.items():
            suffix = "  (+faults)" if name in FAULTY_SCENARIOS else ""
            print(
                f"{name:20s} {spec.seed:5d} {spec.duration_s:8.2f}s "
                f"{len(spec.generate()):9d}  {spec.generator}{suffix}"
            )
        return 0
    if (args.scenario is None) == (args.trace is None):
        raise SystemExit("replay needs exactly one of --scenario or --trace (or --list)")
    if args.replicas is not None and args.replicas <= 0:
        raise SystemExit("--replicas must be positive")
    if not 0.0 <= args.sampling <= 1.0:
        raise SystemExit("--sampling must be in [0, 1]")
    if args.tune and args.mode == "live":
        raise SystemExit("--tune replays in the virtual-time simulator; drop --mode live")
    if args.tune and args.out:
        raise SystemExit("--tune writes a tuned-config artifact, not a trace (--tune-out)")
    if args.tune_workers is not None and args.tune_workers <= 0:
        raise SystemExit("--tune-workers must be positive")
    if args.scenario is not None:
        if args.scenario in FAULTY_SCENARIOS:
            replayer = faulty_replayer(args.scenario)
        elif args.scenario in SCENARIOS or args.scenario in EXTRA_SCENARIOS:
            replayer = TraceReplayer.from_scenario(args.scenario)
        else:
            raise SystemExit(
                f"unknown scenario {args.scenario!r} (repro replay --list shows the zoo)"
            )
    else:
        replayer = TraceReplayer.from_file(args.trace)

    # Injection is gated on --faults; a bare flag uses the plan already
    # attached (faulty scenario / recorded incident), a value loads one.
    if args.faults is None:
        replayer.faults = None
    elif args.faults != "auto":
        import json as _json

        replayer.faults = FaultPlan.from_json(
            _json.loads(Path(args.faults).read_text())
        )
    elif not replayer.faults:
        raise SystemExit(
            "--faults given but neither the scenario nor the artifact "
            "carries a fault plan (pass a FaultPlan JSON file instead)"
        )

    model = build_model(args.family, rng=make_rng(args.seed))
    if args.weights:
        model.load_state_dict(load_state(args.weights))
    if args.tune:
        return _replay_tune(replayer, model, args)
    defaults: dict = {"replicas": 2}
    if replayer.faults and args.mode == "live":
        # An injected incident without self-healing would just lose the
        # crashed replicas' capacity for the rest of the run.
        defaults.update({"supervise": True, "retry": True})
    config = config_from_args(args, defaults=defaults)
    recorder = None
    if args.out:
        recorder = TraceRecorder(
            args.out,
            meta={
                **replayer.meta,
                "name": replayer.name,
                "duration_s": replayer.duration_s,
                "mode": args.mode,
            },
        )

    tracer = None
    if args.mode == "sim":
        result = replayer.simulate(model, config, recorder=recorder)
    else:
        tracer = Tracer(sampling=args.sampling, seed=args.seed)
        result = replayer.replay(model, config, tracer=tracer, recorder=recorder)

    def ms(value) -> str:
        return f"{1e3 * value:.1f}ms" if value is not None else "n/a"

    outcomes, lat = result["outcomes"], result["latency"]
    print(
        f"replay {result['name']} ({result['mode']}): {result['requests']} requests "
        f"over {result['duration_s']:.2f}s, {config.replicas} replicas"
    )
    if replayer.faults:
        kinds = [e.kind for e in replayer.faults.events]
        print(
            f"  faults    {len(kinds)} injected "
            f"({', '.join(f'{kinds.count(k)} {k}' for k in dict.fromkeys(kinds))})"
        )
    print(
        f"  outcomes  ok {outcomes['ok']}  late {outcomes['late']}  "
        f"rejected {outcomes['rejected']}  lost {outcomes['lost']}"
    )
    print(
        f"  miss-rate {result['miss_rate']:.3f}  goodput {result['goodput_rps']:7.1f} req/s  "
        f"p50 {ms(lat['p50_s'])}  p95 {ms(lat['p95_s'])}  p99 {ms(lat['p99_s'])}"
    )
    if result.get("widths"):
        served = "  ".join(f"{w}:{c}" for w, c in result["widths"].items())
        print(f"  widths    {served}")
    if tracer is not None:
        stats = tracer.stats()
        print(
            f"  tracing   sampling {stats['sampling']:.2f}  emitted {stats['emitted']}  "
            f"dropped {stats['dropped']}"
        )
    if recorder is not None:
        path = recorder.write()
        print(f"  recorded  {len(recorder)} request records -> {path}")
    return 0


def _replay_tune(replayer, model, args) -> int:
    """``replay --tune``: offline config search on the loaded trace."""
    from repro.tuning.artifact import write_tuned_config
    from repro.tuning.tuner import default_workers, tune

    use_faults = replayer.faults is not None
    workers = args.tune_workers if args.tune_workers is not None else default_workers()
    result = tune(
        replayer, model, seed=args.seed, workers=workers, use_faults=use_faults
    )
    out = args.tune_out or f"tuned_{replayer.name}.json"
    path = write_tuned_config(out, result)
    stages = result.stages
    print(
        f"tune {result.trace_name}: {result.evaluations} simulations "
        f"(grid {stages['grid']}, coarse {stages['coarse']} @ "
        f"{stages['coarse_frac']:.0%} of trace, refine {stages['refine']}, "
        f"zoo-validated {stages['validated']}), seed {result.seed}, "
        f"{workers} workers{', faults injected' if use_faults else ''}"
    )
    for label, ev in (("baseline", result.baseline), ("tuned", result.tuned)):
        print(
            f"  {label:8s} miss-rate {ev.miss_rate:.3f}  "
            f"goodput {ev.goodput_rps:7.1f} req/s  ({ev.requests} requests)"
        )
    winner = dict(sorted(result.winner.mapping.items()))
    print(f"  winner    {winner}")
    verdict = "improved" if result.improved else "no improvement (kept for audit)"
    print(f"  artifact  {path} ({verdict})")
    return 0


def cmd_dist(args) -> int:
    """Eager-vs-compiled comparison of the distributed engine on one scenario."""
    import numpy as np

    if args.batch <= 0 or args.batches <= 0:
        raise SystemExit("--batch/--batches must be positive")
    net = SlimmableConvNet(paper_width_spec(), rng=make_rng(args.seed))
    width = net.width_spec
    spec_name = args.subnet or "lower100"
    if spec_name not in {s.name for s in width.all_specs()}:
        raise SystemExit(f"unknown subnet {spec_name!r}")
    spec = width.find(spec_name)
    if args.mode == "ha" and not spec.is_lower():
        raise SystemExit("HA mode needs a combined (lower-anchored) subnet")
    x = make_rng(args.seed + 1).standard_normal(
        (args.batch, net.in_channels, net.image_size, net.image_size)
    )

    def drive(compiled: bool):
        if args.tcp:
            from repro.distributed.cluster import LocalCluster

            with LocalCluster(net, compiled=compiled) as cluster:
                return _dist_run(cluster.master.engine, args, spec, x)
        import threading

        from repro.comm.transport import InProcChannel
        from repro.device.emulated import EmulatedDevice
        from repro.distributed.master import MasterRuntime
        from repro.distributed.worker import WorkerServer

        chan = InProcChannel()
        server = WorkerServer(
            EmulatedDevice(jetson_nx_worker(), net), chan.b, partition_split=width.split
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        master = MasterRuntime(
            EmulatedDevice(jetson_nx_master(), net),
            chan.a,
            partition_split=width.split,
            compiled=compiled,
        )
        try:
            return _dist_run(master.engine, args, spec, x)
        finally:
            master.engine.shutdown()
            thread.join(timeout=5.0)

    variants = [False, True] if args.compiled is None else [bool(args.compiled)]
    results = {}
    for compiled in variants:
        label = "compiled" if compiled else "eager"
        results[label] = drive(compiled)
        r = results[label]
        images = args.batch * args.batches
        print(
            f"{label:9s} {args.mode.upper()} {spec_name}: "
            f"{images / r['wall_s']:8.1f} img/s wall"
        )
        if r["exchange_bytes"]:
            total = sum(r["exchange_bytes"])
            print(f"          per-round exchange bytes {r['exchange_bytes']} (total {total})")
        if r["overlap"] is not None:
            print(f"          dispatch overlap {r['overlap']:.2f} (1/k serial .. 1.0 fully overlapped)")
    if len(results) == 2:
        same = np.array_equal(results["eager"]["logits"], results["compiled"]["logits"])
        speedup = results["eager"]["wall_s"] / results["compiled"]["wall_s"]
        print(f"bitwise parity: {same}   compiled speedup {speedup:.2f}x")
        if not same:
            return 1
    return 0


def _dist_run(engine, args, spec, x):
    """Run one warmup + ``--batches`` timed batches; return facts for cmd_dist."""
    def once():
        if args.mode == "ha":
            return engine.execute(ha_plan(spec.name), x).logits
        if args.mode == "ht":
            # Each device runs the whole batch on its own stream.
            plan = ht_plan("lower50", "upper50")
            return engine.execute(plan, streams={MASTER: x, WORKER: x}).streams[MASTER]
        return engine.execute(solo_plan(MASTER, spec.name), x).logits

    once()  # warmup: compile plans, warm packed caches
    started = time.perf_counter()
    logits = None
    for _ in range(args.batches):
        logits = once()
    wall = time.perf_counter() - started
    overlap = engine.metrics.ewma("round.overlap").value
    if overlap is None:
        overlap = engine.metrics.ewma("stream.overlap").value
    return {
        "wall_s": wall,
        "exchange_bytes": list(engine.last_exchange_bytes),
        "overlap": overlap,
        "logits": logits,
    }


def cmd_calibration(_args) -> int:
    net = SlimmableConvNet(paper_width_spec(), rng=make_rng(0))
    print(f"{'operating point':24s} {'paper':>7s} {'emulated':>9s} {'error':>7s}")
    for point in calibration_points(net).values():
        print(
            f"{point.name:24s} {point.paper_ips:7.1f} {point.predicted_ips:9.2f} "
            f"{100 * point.relative_error:6.2f}%"
        )
    return 0


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "fig2": cmd_fig2,
    "simulate": cmd_simulate,
    "replay": cmd_replay,
    "dist": cmd_dist,
    "calibration": cmd_calibration,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    old_policy = set_dtype_policy(resolve_dtype_policy(args.dtype_policy))
    try:
        return COMMANDS[args.command](args)
    finally:
        set_dtype_policy(old_policy)


if __name__ == "__main__":
    sys.exit(main())
