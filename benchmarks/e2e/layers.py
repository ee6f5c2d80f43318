"""Per-layer metrics: from a traced window's spans, from isolated probes
of public functions, and from counts the program reports.

Layers are ``src/repro`` module names.  Each function returns only the
metrics its input supports — a window that never entered a layer says
nothing about it — and ``run.py`` fills the rest from the side windows.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Sequence

import numpy as np

from repro.nn.plan import compile_width_plans
from repro.nn.shm import RING_SEGMENT_TAG, ShmRing, create_segment, unlink_created_segments
from repro.scheduler.admission import SLA, AdmissionController
from repro.scheduler.width_policy import WidthPolicy
from repro.trace.tracer import EVENT_SUBMIT, NULL_TRACER, Tracer

from loadgen import Window, coefficient_of_variation
from spans import Span, by_name, of_requests, self_times, sum_by_rid
from workloads import DEADLINE_S, build_net

median = statistics.median


# -- from spans -------------------------------------------------------------------


def traced(window: Window, spans: Sequence[Span]) -> Dict[str, float]:
    """Layer metrics of one traced window.  Request ids are the window's
    request indices; only requests that completed inside it count."""
    spans = of_requests(spans, window.measured())
    groups = by_name(spans)
    own = self_times(spans)
    m: Dict[str, float] = {}

    def med(name: str, values, scale: float) -> None:
        values = list(values)
        if values:
            m[name] = median(values) * scale

    # One plan run (a micro-batch) or one request: kernel time summed per id.
    for name, metric in (
        ("nn.functional.im2col", "nn.functional.im2col_ms"),
        ("nn.functional.gemm", "nn.functional.gemm_ms"),
        ("nn.functional.maxpool", "nn.functional.maxpool_ms"),
    ):
        med(metric, sum_by_rid(groups.get(name, ()), lambda s: own[s.id]).values(), 1e3)
    plans = groups.get("nn.plan.run_parts", ())
    med("nn.plan.run_ms", (s.duration for s in plans), 1e3)
    med("nn.plan.other_ms", (own[s.id] for s in plans), 1e3)

    m.update(_frontend_stages(window, groups, own))
    m.update(_dist_stages(window, groups, own))
    return m


def _frontend_stages(window, groups, own) -> Dict[str, float]:
    submits = groups.get("scheduler.frontend.submit", ())
    thread = groups.get("scheduler.pool.run_parts", ())
    process = groups.get("scheduler.procpool.run_parts", ())
    if not submits:
        return {}
    m = {"scheduler.frontend.submit_us": median(own[s.id] for s in submits) * 1e6}
    if thread:
        m["scheduler.pool.run_parts_ms"] = median(s.duration for s in thread) * 1e3
    if process:
        # Per batch: the parent's run_parts minus the seconds the worker says
        # it spent in its forward (the exchange span's tag).
        computing = {s.parent: s.tag for s in groups["scheduler.procpool.exchange"]}
        m["scheduler.procpool.ipc_ms"] = (
            median(s.duration - computing[s.id] for s in process if s.id in computing) * 1e3
        )
    submitted = {s.rid: s for s in submits}
    batch_of = {rid: s for s in (*thread, *process) for rid in s.rid}
    waits, resolves, ratios = [], [], []
    for k in window.measured():
        submit, batch = submitted.get(k), batch_of.get(k)
        if submit is None or batch is None:
            continue
        wait = batch.start - submit.end
        resolve = window.done[k] - batch.end
        waits.append(wait)
        resolves.append(resolve)
        ratios.append(
            (submit.duration + wait + batch.duration + resolve)
            / (window.done[k] - window.submitted[k])
        )
    m["runtime.batching.gather_wait_ms"] = median(waits) * 1e3
    m["scheduler.frontend.resolve_us"] = median(resolves) * 1e6
    m["client.stage_sum_ratio"] = median(ratios)
    return m


def _dist_stages(window, groups, own) -> Dict[str, float]:
    serves = groups.get("runtime.live.serve_batch", ())
    if not serves:
        return {}
    executes = groups["engine.execute"]
    encodes, decodes = groups["comm.wire.encode"], groups["comm.wire.decode"]
    local = sum_by_rid(groups["engine.endpoint.local"], lambda s: s.duration)
    remote = sum_by_rid(groups["engine.endpoint.remote"], lambda s: s.duration)
    serve_self = {s.rid: own[s.id] for s in serves}
    execute_self = {s.rid: own[s.id] for s in executes}
    measured = [k for k in window.measured() if k in serve_self and k in execute_self]
    return {
        "runtime.live.serve_overhead_us": median(serve_self.values()) * 1e6,
        "engine.execute_ms": median(s.duration for s in executes) * 1e3,
        "engine.endpoint.local_ms": median(local.values()) * 1e3,
        "engine.endpoint.remote_ms": median(remote.values()) * 1e3,
        "comm.wire.encode_us": median(s.duration for s in encodes) * 1e6,
        "comm.wire.decode_us": median(s.duration for s in decodes) * 1e6,
        "comm.wire.bytes_per_img": sum(s.tag for s in encodes) / (len(serves) * window.rows),
        "comm.transport.frames_per_req": len(encodes) / len(serves),
        "client.stage_sum_ratio": median(
            (serve_self[k] + execute_self[k] + local.get(k, 0.0))
            / (window.done[k] - window.submitted[k])
            for k in measured
        ),
    }


def client(window: Window) -> Dict[str, float]:
    return {
        "client.latency_p99_ms": median(window.segment_p99_ms()),
        "client.latency_max_ms": max(window.latencies_s()) * 1e3,
        "client.seg_cv": coefficient_of_variation(window.segment_throughput()),
    }


# -- isolated probes --------------------------------------------------------------


def _median_call_s(fn: Callable[[], object], calls: int) -> float:
    for _ in range(max(3, calls // 20)):
        fn()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def probes() -> Dict[str, float]:
    """Medians of repeated calls of public functions, and program-reported
    constants.  Call counts are sized so every probe stays under ~1 s: 2000+
    for microsecond calls, fewer for the millisecond ones."""
    net = build_net()
    widths = net.width_spec.lower_family()
    widest = widths[-1].name
    m: Dict[str, float] = {}

    m["nn.plan.compile_ms"] = (
        _median_call_s(lambda: compile_width_plans(net, widths, batch_rows=16), 15) * 1e3
    )
    plans = compile_width_plans(net, widths, batch_rows=16)
    plan = plans[widest]
    rows = [np.random.default_rng(0).standard_normal((1, 1, 28, 28)) for _ in range(16)]
    m["nn.plan.run_ms_rows1"] = _median_call_s(lambda: plan.run_parts(rows[:1]), 500) * 1e3
    m["nn.plan.run_ms_rows16"] = _median_call_s(lambda: plan.run_parts(rows), 200) * 1e3
    m["nn.plan.arena_mb"] = sum(p.workspaces.workspace_nbytes for p in plans.values()) / 1e6
    m["nn.plan.flops_per_img"] = float(plan.flops_per_image())

    sla = SLA(deadline_s=DEADLINE_S)
    admission = AdmissionController()
    m["scheduler.admission.decide_us"] = _median_call_s(
        lambda: admission.decide_remaining(
            sla, remaining_s=DEADLINE_S, queue_wait_s=1e-3, service_floor_s=1e-3
        ),
        5000,
    ) * 1e6
    policy = WidthPolicy(net, widths, plan_flops={w: p.flops_per_image() for w, p in plans.items()})
    for spec in widths:
        policy.observe(spec.name, 1e-3)
    m["scheduler.width_policy.choose_us"] = (
        _median_call_s(lambda: policy.choose(DEADLINE_S), 5000) * 1e6
    )

    segment = create_segment(RING_SEGMENT_TAG, 1 << 20)
    try:
        ring = ShmRing(segment, 0, 1 << 20)
        m["nn.shm.place_us"] = (
            _median_call_s(lambda: ring.place_parts(rows, np.float64), 2000) * 1e6
        )
    finally:
        unlink_created_segments()

    tracer = Tracer(sampling=1.0)
    m["trace.tracer.emit_ns"] = _median_call_s(
        lambda: tracer.emit(0, EVENT_SUBMIT, deadline_s=DEADLINE_S, priority=0, rows=1),
        20000,
    ) * 1e9
    m["trace.tracer.null_emit_ns"] = _median_call_s(
        lambda: NULL_TRACER.emit(0, EVENT_SUBMIT, deadline_s=DEADLINE_S, priority=0, rows=1),
        20000,
    ) * 1e9
    return m
