"""Compiled vs eager distributed execution over the Fig. 2 scenarios.

Every Fig. 2 serving scenario — solo, High-Throughput, High-Accuracy — is
timed on the unified engine over in-process endpoints, the in-process wire
protocol (InProcChannel), and a real TCP subprocess worker, eager vs
compiled (``compiled=True`` routes the HA rounds through each device's
:class:`~repro.nn.plan.InferencePlan` compiled over its channel block, with
delta halo exchange).  The paper's serving regime is single images, so the number of
interest is compiled vs eager HA at batch 1; larger batches are GEMM-bound
and converge.

Nothing here is gated or committed: ``benchmarks/e2e``'s ``dist_ha`` /
``dist_ht`` workloads are the calibrated measurement of the compiled path
(its A/A study put HA-over-TCP spread at ~30% on a shared 2-core box, wider
than the eager-vs-compiled gap this script sees there).  Bitwise
compiled/eager parity on every transport, the exact per-round exchange
bytes and zero steady-state allocation are tier-1's
(``tests/engine/test_dist_plan.py``).  Run directly to print the table and
write it, env-stamped, to ``benchmarks/out/dist_plan.json``::

    PYTHONPATH=src python benchmarks/bench_dist_plan.py

or as the CI smoke (in-process and wire only, a few trials, nothing
written)::

    PYTHONPATH=src python benchmarks/bench_dist_plan.py --smoke
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from common import write_out
from repro.comm.transport import InProcChannel
from repro.device.emulated import EmulatedDevice
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.cluster import LocalCluster
from repro.distributed.master import MasterRuntime
from repro.distributed.worker import WorkerServer
from repro.engine.endpoints import LocalEndpoint
from repro.engine.engine import ExecutionEngine
from repro.engine.graph import BlockPartition
from repro.engine.modes import MASTER, WORKER
from repro.engine.plan import ha_plan, ht_plan, partitioned_plan, solo_plan, streams_plan
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.utils.rng import make_rng

SPLIT = 8


def _net() -> SlimmableConvNet:
    return SlimmableConvNet(paper_width_spec(), rng=make_rng(0))


def _batch(n: int) -> np.ndarray:
    return make_rng(42).standard_normal((n, 1, 28, 28))


def _median_ms(fn: Callable[[], object], trials: int, warmup: int = 10) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def _paired(a: Callable[[], object], b: Callable[[], object], trials: int) -> Dict:
    """Noise-robust eager/compiled timing: alternate chunks, min-of-medians.

    Interleaving the two sides cancels slow machine-state drift (frequency
    scaling, cache pressure from earlier measurements) that a single long
    back-to-back pass folds entirely into whichever side ran second.
    """
    chunks = 5
    per_chunk = max(trials // chunks, 4)
    medians_a, medians_b = [], []
    for _ in range(chunks):
        medians_a.append(_median_ms(a, per_chunk, warmup=3))
        medians_b.append(_median_ms(b, per_chunk, warmup=3))
    eager_ms, compiled_ms = min(medians_a), min(medians_b)
    return {
        "eager_ms": eager_ms,
        "compiled_ms": compiled_ms,
        "speedup": eager_ms / compiled_ms,
    }


# -- runtimes over the three endpoint transports ------------------------------


#: The in-process engine's devices and the plans over its two blocks.
DEVICES = ("dev0", "dev1")
HA_BLOCKS = partitioned_plan(DEVICES, "combined")


def _local_engine(net: SlimmableConvNet, *, compiled: bool) -> ExecutionEngine:
    """The paper's two devices as in-process endpoints of one engine."""
    profiles = (jetson_nx_master(), jetson_nx_worker())
    return ExecutionEngine(
        {
            name: LocalEndpoint(name, EmulatedDevice(profile, net))
            for name, profile in zip(DEVICES, profiles)
        },
        net.width_spec,
        partition=BlockPartition.two_way(SPLIT, net.width_spec.max_width),
        compiled=compiled,
    )


class _InProcMaster:
    """MasterRuntime + served WorkerServer over an in-process channel."""

    def __init__(self, net: SlimmableConvNet, *, compiled: bool) -> None:
        chan = InProcChannel()
        server = WorkerServer(
            EmulatedDevice(jetson_nx_worker(), net), chan.b, partition_split=SPLIT
        )
        self._thread = threading.Thread(target=server.serve_forever, daemon=True)
        self._thread.start()
        self.runtime = MasterRuntime(
            EmulatedDevice(jetson_nx_master(), net),
            chan.a,
            partition_split=SPLIT,
            compiled=compiled,
        )

    def __enter__(self) -> MasterRuntime:
        return self.runtime

    def __exit__(self, *exc) -> None:
        self.runtime.engine.shutdown()
        self._thread.join(timeout=5.0)


# -- measurements -------------------------------------------------------------


def measure_inprocess(batch_sizes=(1, 4, 16), trials: int = 300) -> Dict:
    """Fig. 2 over pure in-process endpoints: solo, HT, and eager-vs-compiled HA."""
    net = _net()
    out: Dict[str, object] = {}
    engine = _local_engine(net, compiled=False)
    solo = streams_plan([(DEVICES[0], "block0")])
    ht = streams_plan([(DEVICES[0], "block0"), (DEVICES[1], "block1")])
    try:
        x = _batch(8)
        out["solo_ms"] = _median_ms(lambda: engine.execute(solo, x), trials // 2)
        out["ht_ms"] = _median_ms(lambda: engine.execute(ht, x), trials // 2)
    finally:
        engine.shutdown()

    ha: Dict[str, Dict[str, float]] = {}
    for rows in batch_sizes:
        x = _batch(rows)
        eager = _local_engine(net, compiled=False)
        compiled = _local_engine(net, compiled=True)
        try:
            ha[str(rows)] = _paired(
                lambda: eager.execute(HA_BLOCKS, x),
                lambda: compiled.execute(HA_BLOCKS, x),
                trials,
            )
            if rows == batch_sizes[0]:
                out["overlap_ewma"] = float(
                    compiled.metrics.ewma("round.overlap").value
                )
        finally:
            eager.shutdown()
            compiled.shutdown()
    out["ha"] = ha
    return out


def measure_wire(batch_sizes=(1, 8), trials: int = 200) -> Dict:
    """Fig. 2 over the master/worker wire protocol on an in-process channel."""
    net = _net()
    ha_full = ha_plan(net.width_spec.full().name)
    solo, ht = solo_plan(MASTER, "lower50"), ht_plan("lower50", "upper50")
    out: Dict[str, object] = {}
    with _InProcMaster(net, compiled=False) as master:
        x = _batch(8)
        engine = master.engine
        out["solo_ms"] = _median_ms(lambda: engine.execute(solo, x), trials // 2)
        out["ht_ms"] = _median_ms(
            lambda: engine.execute(ht, streams={MASTER: x, WORKER: x}), trials // 2
        )
    ha: Dict[str, Dict[str, float]] = {}
    for rows in batch_sizes:
        x = _batch(rows)
        with _InProcMaster(net, compiled=False) as eager, \
                _InProcMaster(net, compiled=True) as compiled:
            ha[str(rows)] = _paired(
                lambda: eager.engine.execute(ha_full, x),
                lambda: compiled.engine.execute(ha_full, x),
                trials,
            )
    out["ha"] = ha
    return out


def measure_tcp(trials: int = 60) -> Dict:
    """HA at batch 1 over a real subprocess worker on localhost TCP."""
    net = _net()
    ha_full = ha_plan(net.width_spec.full().name)
    x = _batch(1)
    with LocalCluster(net, compiled=False) as eager, \
            LocalCluster(net, compiled=True) as compiled:
        timing = _paired(
            lambda: eager.master.engine.execute(ha_full, x),
            lambda: compiled.master.engine.execute(ha_full, x),
            trials,
        )
    return {"ha": {"1": timing}}


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="in-process and wire transports, a few trials; nothing written",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = {
            "inprocess": measure_inprocess(batch_sizes=(1, 4), trials=20),
            "wire_inproc": measure_wire(batch_sizes=(1,), trials=20),
        }
    else:
        report = {
            "inprocess": measure_inprocess(),
            "wire_inproc": measure_wire(),
            "tcp": measure_tcp(),
        }
    for transport, stats in report.items():
        for rows, ha in sorted(stats["ha"].items(), key=lambda kv: int(kv[0])):
            print(
                f"  {transport:11s} HA batch {rows:>2s}: eager {ha['eager_ms']:7.2f}ms  "
                f"compiled {ha['compiled_ms']:7.2f}ms  ({ha['speedup']:.2f}x)"
            )
    print(f"  round overlap {report['inprocess']['overlap_ewma']:.2f}")
    if args.smoke:
        print("smoke OK")
    else:
        print(f"wrote {write_out('dist_plan', report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
