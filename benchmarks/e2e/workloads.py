"""The five workloads: how each system is built, driven, checked and traced.

Every system is built through the program's public API at its shipped
defaults (float64 inference, float32 wire, ``SchedulerConfig()`` defaults)
except the deadline, which is set far above any latency this box shows: it
keeps admission, the width policy and the hedge timer out of the picture
so the run measures *cost, not policy* — and the guards below turn a run
that left that regime into an error instead of a number.

The program only ever receives arrays; ``--seed`` stops at
:func:`make_payloads`.  No layer caches on input content (plans cache
packed *weights*), so cycling 256 payloads is neutral.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.comm.message as wire_user  # where Message binds encode_frame/decode_frame
from repro.comm import CommLatencyModel, InProcChannel, cast_for_wire
from repro.device import EmulatedDevice, jetson_nx_master, jetson_nx_worker
from repro.distributed import (
    MASTER,
    WORKER,
    ExecutionMode,
    MasterRuntime,
    SystemThroughputModel,
    WorkerServer,
)
from repro.engine.endpoints import TransportEndpoint
from repro.models import FluidDyDNN
from repro.nn import functional as F
from repro.nn.context import ForwardContext
from repro.nn.shm import ensure_shared_parameters
from repro.runtime import AdaptationPolicy, LiveSystem
from repro.scheduler.admission import SLA
from repro.scheduler.frontend import SchedulerConfig, ServingFrontend
from repro.slimmable import SlimmableConvNet, paper_width_spec
from repro.utils import make_rng
from repro.utils.dtypes import compute_dtype

PAYLOADS = 256
# The hedge timer fires at half the remaining budget.  With a 1 s deadline
# that is 0.5 s, and this shared box stalls one request that long about once
# in ten 20 s runs of sat_thread (the hypervisor steals the core): the run
# would end with a hedge, a tripped guard and no result.  10 s puts the
# timer at 5 s; nothing else in the control plane can tell the difference.
DEADLINE_S = 10.0
FAILOVER_REQUESTS = 4  # x 16 images = the 64 served by the master alone


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "frontend" | "dist"
    option: str          # replica backend | adaptation target
    in_flight: int
    rows: int            # images per request
    rtol: Optional[float]  # None: responses must equal the reference bitwise
    fails_over: bool = False  # after the window the worker dies and the master serves alone


# Why each is here: BENCHMARK.json (one line) and README.md (the long form).
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("b1_thread", "frontend", "thread", in_flight=1, rows=1, rtol=None),
        Workload("sat_thread", "frontend", "thread", in_flight=32, rows=1, rtol=1e-9),
        Workload("sat_process", "frontend", "process", in_flight=32, rows=1, rtol=1e-9),
        Workload("dist_ha", "dist", "accuracy", in_flight=1, rows=1, rtol=None),
        Workload("dist_ht", "dist", "throughput", in_flight=1, rows=16, rtol=1e-6, fails_over=True),
    )
}

# Layers a workload never enters are measured, for the per-layer table only,
# in a one-segment traced side window of a workload that does enter them.
# A side window speaks only for the layers it is the home of (by metric
# prefix), and run.py labels every value read from one.
SIDE_HOME: Dict[str, Tuple[str, ...]] = {
    "sat_thread": (
        "scheduler.frontend.", "scheduler.pool.", "runtime.batching.", "nn.plan.", "nn.functional.",
    ),
    "sat_process": ("scheduler.procpool.",),
    "dist_ha": ("engine.", "comm.", "runtime.live."),
}


def side_windows(workload: Workload) -> Tuple[str, ...]:
    """The homes whose system is not the one ``workload`` itself drives."""
    def system(w: Workload) -> Tuple[str, str]:
        return (w.kind, w.option if w.kind == "frontend" else "")
    return tuple(home for home in SIDE_HOME if system(WORKLOADS[home]) != system(workload))


class RegimeChanged(RuntimeError):
    """The run left the regime the workload is defined in: no numbers."""


def make_payloads(seed: int, rows: int) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows, 1, 28, 28)) for _ in range(PAYLOADS)]


def build_net() -> SlimmableConvNet:
    """The paper's 3-conv net with a fixed weight seed."""
    return SlimmableConvNet(paper_width_spec(), rng=make_rng(0))


def _eager(net, width: str, x: np.ndarray) -> np.ndarray:
    view = net.view(net.width_spec.find(width))
    view.train(False)
    return view.forward(x, ForwardContext(recording=False))


def _per_image(net, width: str, payloads) -> np.ndarray:
    """Eager logits, one image per forward: shape (payloads, rows, classes)."""
    return np.stack(
        [np.concatenate([_eager(net, width, x[i : i + 1]) for i in range(len(x))]) for x in payloads]
    )


# -- the serving frontend (b1_thread, sat_thread, sat_process) ------------------


class FrontendSystem:
    """``ServingFrontend`` over a bare net at shipped defaults."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.net = build_net()
        self.frontend = ServingFrontend(
            self.net,
            SchedulerConfig(
                default_sla=SLA(deadline_s=DEADLINE_S), replica_backend=workload.option
            ),
        )
        self.widest = self.frontend.policy.candidates[0].name
        if self.widest != self.net.width_spec.lower_family()[-1].name:
            raise RegimeChanged(f"widest candidate is {self.widest}, references assume the full net")
        self.inflight: Dict[int, int] = {}  # id(payload) -> request id, for span matching

    def submit(self, x: np.ndarray) -> Future:
        return self.frontend.submit(x)

    def instrument(self, rec) -> None:
        fe = self.frontend
        rec.patch(fe, "submit", "scheduler.frontend.submit")
        run_parts = (
            "scheduler.procpool.run_parts"
            if self.workload.option == "process"
            else "scheduler.pool.run_parts"
        )
        inflight = self.inflight
        for replica in fe.pool.replicas:
            rec.patch(
                replica, "run_parts", run_parts,
                rid_of=lambda parts, width: tuple(inflight.get(id(p)) for p in parts),
            )
        if self.workload.option == "process":
            # The one number a worker reports about itself: seconds inside
            # its forward.  The rest of the parent's run_parts is IPC.
            rec.patch(
                TransportEndpoint, "run_parts", "scheduler.procpool.exchange",
                tag_of=lambda reply: reply.compute_s,
            )
        for plan in fe.plans.values():
            rec.patch(plan, "run_parts", "nn.plan.run_parts")
        _patch_kernels(rec)

    def counters(self) -> Dict[str, float]:
        report = self.frontend.report()
        counts = report["metrics"]["counters"]
        batching = list(report["batching"].values())
        batches = sum(q["batches"] for q in batching)
        requests = counts.get("frontend.requests", 0)
        return {
            "scheduler.frontend.hedges": counts.get("frontend.hedges", 0),
            "scheduler.frontend.rejected": counts.get("frontend.rejected", 0),
            "scheduler.frontend.reroutes": counts.get("frontend.reroutes", 0),
            "scheduler.frontend.widest_share": (
                counts.get(f"frontend.width.{self.widest}", 0) / requests if requests else 0.0
            ),
            "runtime.batching.rows_per_batch": (
                sum(q["rows"] for q in batching) / batches if batches else 0.0
            ),
            "runtime.batching.timer_flush_share": (
                sum(q["deadline_flushes"] for q in batching) / batches if batches else 0.0
            ),
        }

    GUARDS = {
        "scheduler.frontend.hedges": 0,
        "scheduler.frontend.rejected": 0,
        "scheduler.frontend.reroutes": 0,
        "scheduler.frontend.widest_share": 1.0,
    }

    def check_regime(self) -> None:
        seen = self.counters()
        broken = {k: seen[k] for k, want in self.GUARDS.items() if seen[k] != want}
        if broken:
            raise RegimeChanged(f"{self.workload.name}: {broken}")

    def close(self) -> None:
        self.frontend.close()
        if self.workload.option == "process":
            # The weight arena outlives the frontend (it belongs to the net);
            # unlink it so repeated builds leave nothing in /dev/shm.
            ensure_shared_parameters(self.net).unlink()


# -- the two-device cluster (dist_ha, dist_ht) ----------------------------------


class DistSystem:
    """``LiveSystem`` over ``MasterRuntime(compiled=True)`` + ``WorkerServer``
    on an ``InProcChannel``: one process, the real wire codec."""

    def __init__(self, workload: Workload, *, compiled: bool = True) -> None:
        self.workload = workload
        self.net = build_net()
        split = self.net.width_spec.split
        self.channel = InProcChannel()
        server = WorkerServer(
            EmulatedDevice(jetson_nx_worker(), self.net), self.channel.b, partition_split=split
        )
        self.worker_thread = threading.Thread(
            target=server.serve_forever, name="bench-worker", daemon=True
        )
        self.worker_thread.start()
        master = MasterRuntime(
            EmulatedDevice(jetson_nx_master(), self.net),
            self.channel.a,
            partition_split=split,
            compiled=compiled,
        )
        self.live = LiveSystem(master, _policy(self.net, workload.option))
        self.engine = master.engine
        self.mode = (
            ExecutionMode.HIGH_ACCURACY
            if workload.option == "accuracy"
            else ExecutionMode.HIGH_THROUGHPUT
        )
        if self.live.plan.mode is not self.mode:
            raise RegimeChanged(f"{workload.name}: planned {self.live.plan.describe()}")
        self._index = 0
        self.left_mode = 0

    def submit(self, x: np.ndarray) -> Future:
        """``serve_batch`` is synchronous; the future is resolved on return."""
        future: Future = Future()
        try:
            served = self.live.serve_batch(self._index, x)
            self._index += 1
            if served.mode is not self.mode or served.failed_over or served.logits is None:
                self.left_mode += 1
                raise RegimeChanged(f"served in {served.mode.name}")
            future.set_result(served.logits)
        except Exception as exc:  # noqa: BLE001 - delivered through the future
            future.set_exception(exc)
        return future

    def fail_worker_and_serve(self, payloads) -> Tuple[int, int]:
        """Close the worker's channel end, then serve through the same
        ``LiveSystem``: (requests attempted, requests answered correctly by
        the master alone).  Checked, not timed."""
        self.channel.b.close()
        net = build_net()
        solo = _policy(net, self.workload.option).plan(frozenset({MASTER})).assignments[0].subnet
        correct = 0
        for x in payloads[:FAILOVER_REQUESTS]:
            served = self.live.serve_batch(self._index, x)
            self._index += 1
            if (
                served.mode is ExecutionMode.SOLO
                and served.logits is not None
                and np.allclose(served.logits, _per_image(net, solo, [x])[0], rtol=1e-9, atol=1e-9)
            ):
                correct += 1
        return FAILOVER_REQUESTS, correct

    def instrument(self, rec) -> None:
        rec.patch(self.live, "serve_batch", "runtime.live.serve_batch")
        rec.patch(self.engine, "execute", "engine.execute")
        for device, name in ((MASTER, "engine.endpoint.local"), (WORKER, "engine.endpoint.remote")):
            endpoint = self.engine.endpoints[device]
            for method in (
                "run_subnet", "begin_partition_plan", "partition_round", "partition_fc_round",
            ):
                rec.patch(endpoint, method, name)
        rec.patch(wire_user, "encode_frame", "comm.wire.encode", tag_of=len)
        rec.patch(wire_user, "decode_frame", "comm.wire.decode")
        _patch_kernels(rec)

    def counters(self) -> Dict[str, float]:
        report = self.engine.report()
        counts = report["counters"]
        rounds = counts.get("round.count", 0) + counts.get("stream.count", 0)
        overlap = report["wall"]["overlap"]
        overlap = overlap.get("round.overlap") or overlap.get("stream.overlap") or {}
        exchanged = (
            sum(self.engine.last_exchange_bytes)
            if self.mode is ExecutionMode.HIGH_ACCURACY
            else 0
        )
        return {
            "engine.rounds_per_req": rounds / self._index if self._index else 0.0,
            "engine.exchange_bytes_per_img": exchanged / self.workload.rows,
            "engine.overlap": overlap.get("value") or 0.0,
        }

    def check_regime(self) -> None:
        if self.left_mode:
            raise RegimeChanged(
                f"{self.workload.name}: {self.left_mode} requests served outside {self.mode.name}"
            )

    def close(self) -> None:
        self.engine.shutdown()  # stops the dispatch lanes, tells the worker to stop
        self.worker_thread.join(timeout=5.0)
        if self.worker_thread.is_alive():
            raise RuntimeError("worker thread did not stop")


def _patch_kernels(rec) -> None:
    """Spans around the fused kernels (and their eager twins on the HT path).

    ``conv2d_forward`` is the eager conv: its self time (GEMM, bias,
    transpose) counts as GEMM, its ``im2col`` child as gather.
    """
    rec.patch(F, "im2col_into", "nn.functional.im2col")
    rec.patch(F, "im2col", "nn.functional.im2col")
    rec.patch(F, "gemm_bias_relu", "nn.functional.gemm")
    rec.patch(F, "gemm_bias", "nn.functional.gemm")
    rec.patch(F, "conv2d_forward", "nn.functional.gemm")
    rec.patch(F, "maxpool2d_into", "nn.functional.maxpool")


def build(workload: Workload):
    return FrontendSystem(workload) if workload.kind == "frontend" else DistSystem(workload)


def _policy(net, target: str) -> AdaptationPolicy:
    throughput = SystemThroughputModel(
        net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )
    return AdaptationPolicy(FluidDyDNN(net), throughput, target=target)


def references(workload: Workload, payloads) -> np.ndarray:
    """Expected logits per payload, computed outside the measured window
    through the eager path at the width the workload is served at."""
    net = build_net()
    if workload.kind == "frontend":
        # A bare net certifies every lower slice; the widest is the full net.
        return _per_image(net, net.width_spec.lower_family()[-1].name, payloads)
    plan = _policy(net, workload.option).plan(frozenset({MASTER, WORKER}))
    if plan.mode is ExecutionMode.HIGH_ACCURACY:
        # The repo promises compiled HA == eager HA bitwise (both cast the
        # halves to the float32 wire), so the reference is the eager engine
        # path over its own in-process channel.
        eager = DistSystem(workload, compiled=False)
        try:
            return np.stack([eager.live.serve_batch(0, x).logits for x in payloads])
        finally:
            eager.close()
    # HT: the master's half is plain eager; the worker's half sees its input
    # and returns its logits through the wire dtype.
    lower, upper = (a.subnet for a in plan.assignments)
    half = workload.rows // 2
    refs = []
    for x in payloads:
        sent = cast_for_wire(x[half:]).astype(compute_dtype())
        remote = cast_for_wire(_per_image(net, upper, [sent])[0]).astype(compute_dtype())
        refs.append(np.concatenate([_per_image(net, lower, [x[:half]])[0], remote]))
    return np.stack(refs)


def verify(workload: Workload, outputs: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Boolean per response: equal to its reference (bitwise, or within rtol)."""
    if workload.rtol is None:
        return (outputs == references).all(axis=(1, 2))
    return np.isclose(outputs, references, rtol=workload.rtol, atol=workload.rtol).all(axis=(1, 2))
