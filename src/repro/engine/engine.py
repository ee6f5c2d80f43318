"""The N-device execution engine.

:class:`ExecutionEngine` owns a set of named :class:`Endpoint`\\ s, compiles
every :class:`~repro.engine.plan.DeploymentPlan` to the stream/round
graph (:mod:`repro.engine.graph`), and interprets that graph uniformly —
the same loop serves solo, High-Throughput, and High-Accuracy deployments
over any number of devices, with endpoints that may be in-process devices
or remote workers behind a transport.

Dispatch is *overlapped*: every stream op and every partitioned round fans
out to all endpoints concurrently (one thread per endpoint) and gathers the
replies in graph op order, so a slow remote worker no longer serialises the
whole round behind it.

Solo and High-Throughput streams always run each local endpoint's compiled
:class:`~repro.nn.plan.InferencePlan` (bitwise the eager forward).  With
``compiled=True`` the partitioned (HA) path too runs each device's
:class:`~repro.nn.plan.InferencePlan` compiled over its channel block
instead of the eager per-round kernels, and switches the exchange to *delta halos*: each round
ships only the peers' halves (every device already holds its own half in
its arena), and the final conv round ships nothing at all.  Results are
bitwise identical to the eager path at every width and dtype policy.

The engine keeps no emulated time: emulated throughput has one source,
the analytic :class:`~repro.distributed.throughput.SystemThroughputModel`.
What the engine measures lands in a
:class:`~repro.scheduler.telemetry.MetricsRegistry` (``round.count``
counter, ``round.wall_s`` histogram, ``round.comm_bytes`` counter,
``round.overlap`` EWMA, and the same under ``stream.``), which
:meth:`ExecutionEngine.report` returns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial, reduce
from queue import SimpleQueue
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.wire import wire_dtype
from repro.engine.endpoints import Endpoint, EndpointReply, EndpointUnavailable
from repro.engine.graph import (
    BlockPartition,
    ExecutionGraph,
    PartitionLayerOp,
    compile_plan,
)
from repro.engine.modes import ExecutionMode
from repro.engine.plan import DeploymentPlan
from repro.scheduler.telemetry import MetricsRegistry, Timer
from repro.slimmable.spec import ChannelSlice, SubNetSpec, WidthSpec
from repro.utils.dtypes import dtype_policy, get_dtype_policy


@dataclass
class EngineResult:
    """Outcome of executing one plan on one batch (or batch set)."""

    mode: ExecutionMode
    streams: Dict[str, np.ndarray] = field(default_factory=dict)
    logits: Optional[np.ndarray] = None


class _DispatchLane:
    """One persistent dispatch thread fed through a pair of SimpleQueues.

    Purpose-built replacement for a ThreadPoolExecutor: the engine issues a
    fixed small fan-out every round, and the executor's future machinery
    costs more than the queue handoff itself.  Each lane loops forever,
    reinstalling the caller's dtype policy per task (thread-scoped policy
    overrides would otherwise be invisible in the lane thread).
    """

    def __init__(self, name: str) -> None:
        self._inbox: SimpleQueue = SimpleQueue()
        self._outbox: SimpleQueue = SimpleQueue()
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            task = self._inbox.get()
            if task is None:
                return
            call, policy = task
            timer = Timer()
            try:
                with timer, dtype_policy(policy):
                    value = call()
            except BaseException as exc:  # collected and re-raised by the caller
                self._outbox.put((False, exc, timer.elapsed))
            else:
                self._outbox.put((True, value, timer.elapsed))

    def submit(self, call: Callable[[], "EndpointReply"], policy) -> None:
        self._inbox.put((call, policy))

    def collect(self) -> Tuple[bool, object, float]:
        return self._outbox.get()

    def stop(self) -> None:
        self._inbox.put(None)
        self._thread.join(timeout=1.0)


class ExecutionEngine:
    """Runs deployment plans over named endpoints."""

    def __init__(
        self,
        endpoints: Mapping[str, Endpoint],
        width_spec: WidthSpec,
        *,
        partition: Optional[BlockPartition] = None,
        compiled: bool = False,
    ) -> None:
        self.endpoints: Dict[str, Endpoint] = dict(endpoints)
        self.partition = partition
        self.compiled = compiled
        # Every name a plan may use, resolved once: the width family's specs,
        # else the partition's own (``block{i}``, ``combined``).  Later
        # entries win, and the family goes in reversed, so that within it
        # the first spec of a name wins, as in ``WidthSpec.find``.
        n = width_spec.num_convs
        own = [] if partition is None else [
            *(partition.block_spec(i, n) for i in range(partition.num_blocks)),
            partition.combined_spec(n),
        ]
        self._specs: Dict[str, SubNetSpec] = {
            spec.name: spec for spec in (*own, *reversed(width_spec.all_specs()))
        }
        self.metrics = MetricsRegistry()
        #: Per-round exchanged activation bytes of the most recent
        #: partitioned execute (engine↔endpoint boundary, wire itemsize).
        self.last_exchange_bytes: List[int] = []
        self._lanes: List[_DispatchLane] = []
        self._wall_rounds_s = 0.0
        self._graph_cache: Dict[DeploymentPlan, ExecutionGraph] = {}

    # -- lookup ----------------------------------------------------------------

    def endpoint(self, device: str) -> Endpoint:
        try:
            return self.endpoints[device]
        except KeyError:
            raise EndpointUnavailable(f"no endpoint for device {device!r}") from None

    def resolve_spec(self, name: str) -> SubNetSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"no sub-network named {name!r}") from None

    def compile(self, plan: DeploymentPlan) -> ExecutionGraph:
        # Plans are frozen dataclasses and a name always resolves to the
        # same spec, so identical deployments hit the cache by value.
        graph = self._graph_cache.get(plan)
        if graph is None:
            spec = None
            if plan.mode is ExecutionMode.HIGH_ACCURACY:
                spec = self.resolve_spec(plan.combined_subnet)
            if len(self._graph_cache) >= 256:
                self._graph_cache.clear()
            graph = compile_plan(plan, spec, self.partition)
            self._graph_cache[plan] = graph
        return graph

    # -- overlapped dispatch ---------------------------------------------------

    def _lane_set(self, size: int) -> List[_DispatchLane]:
        while len(self._lanes) < size:
            self._lanes.append(_DispatchLane(f"engine-dispatch-{len(self._lanes)}"))
        return self._lanes[:size]

    def _dispatch(
        self, calls: Sequence[Callable[[], EndpointReply]]
    ) -> Tuple[List[EndpointReply], List[float], float]:
        """Run one round's endpoint calls concurrently; gather in call order.

        Returns ``(replies, per_call_seconds, round_wall_seconds)``, the
        replies in call order whatever the completion order.  The calling
        thread's dtype policy is reinstalled in every dispatch thread
        (thread-scoped overrides would otherwise be invisible there).
        """
        if len(calls) == 1:
            with Timer() as timer:
                reply = calls[0]()
            return [reply], [timer.elapsed], timer.elapsed
        # The first call runs inline on the dispatching thread while the
        # rest overlap in lane threads — one less thread handoff per round,
        # and numpy releases the GIL inside the kernels either way.
        policy = get_dtype_policy()
        lanes = self._lane_set(len(calls) - 1)
        round_timer = Timer()
        round_timer.__enter__()
        for lane, call in zip(lanes, calls[1:]):
            lane.submit(call, policy)
        first_exc: Optional[BaseException] = None
        first: Tuple[Optional[EndpointReply], float] = (None, 0.0)
        first_timer = Timer()
        try:
            with first_timer:
                reply0 = calls[0]()
            first = (reply0, first_timer.elapsed)
        except BaseException as exc:
            first_exc = exc
        # Always drain every submitted lane — a leftover result would be
        # misattributed to the next round's dispatch.
        gathered = [lane.collect() for lane in lanes]
        round_timer.__exit__(None, None, None)
        wall = round_timer.elapsed
        if first_exc is not None:
            raise first_exc
        replies: List[EndpointReply] = [first[0]]
        spans: List[float] = [first[1]]
        for ok, value, span in gathered:
            if not ok:
                raise value
            replies.append(value)
            spans.append(span)
        return replies, spans, wall

    def _observe_round(
        self, kind: str, comm_bytes: int, spans: List[float], wall: float
    ) -> None:
        m = self.metrics
        m.counter(f"{kind}.count").inc()
        if comm_bytes:
            m.counter(f"{kind}.comm_bytes").inc(int(comm_bytes))
        m.histogram(f"{kind}.wall_s").observe(wall)
        if spans and wall > 0:
            # 1/k when the k calls ran back-to-back, →1 under perfect overlap.
            m.ewma(f"{kind}.overlap").observe(sum(spans) / (wall * len(spans)))
        self._wall_rounds_s += wall

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        plan: DeploymentPlan,
        x: Optional[np.ndarray] = None,
        *,
        streams: Optional[Mapping[str, np.ndarray]] = None,
    ) -> EngineResult:
        """Run ``plan`` on one batch.

        Args:
            plan: the deployment to execute.
            x: a single input batch.  Partitioned (HA) plans run it jointly;
                stream plans split it evenly across the assigned devices.
            streams: per-device input batches for stream plans (overrides
                the even split of ``x``).
        """
        graph = self.compile(plan)
        if graph.mode is ExecutionMode.FAILED:
            return EngineResult(mode=graph.mode)
        if graph.streams:
            return self._execute_streams(graph, x, streams)
        return self._execute_partitioned(graph, x)

    def _stream_inputs(
        self,
        graph: ExecutionGraph,
        x: Optional[np.ndarray],
        streams: Optional[Mapping[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        if streams is not None:
            missing = [op.device for op in graph.streams if op.device not in streams]
            if missing:
                raise ValueError(f"no input stream for devices {missing}")
            return {op.device: streams[op.device] for op in graph.streams}
        if x is None or x.shape[0] == 0:
            raise ValueError("stream execution needs an input batch")
        k = len(graph.streams)
        chunk = x.shape[0] // k
        inputs = {}
        for i, op in enumerate(graph.streams):
            lo = i * chunk
            hi = lo + chunk if i < k - 1 else x.shape[0]
            if hi > lo:
                # Fewer rows than devices: a device with no rows gets no
                # stream call (a sub-network cannot run on an empty batch).
                inputs[op.device] = x[lo:hi]
        return inputs

    def _execute_streams(
        self,
        graph: ExecutionGraph,
        x: Optional[np.ndarray],
        streams: Optional[Mapping[str, np.ndarray]],
    ) -> EngineResult:
        if not graph.streams:
            raise ValueError(
                f"graph for mode {graph.mode} has no stream ops to execute"
            )
        inputs = self._stream_inputs(graph, x, streams)
        ops = [op for op in graph.streams if op.device in inputs]
        calls = [
            (
                lambda endpoint=self.endpoint(op.device),
                spec=self.resolve_spec(op.subnet),
                batch=inputs[op.device]: endpoint.run_subnet(spec, batch)
            )
            for op in ops
        ]
        replies, spans, wall = self._dispatch(calls)

        outputs = {op.device: reply.arrays["logits"] for op, reply in zip(ops, replies)}
        self._observe_round("stream", 0, spans, wall)
        parts = [outputs[op.device] for op in ops if outputs[op.device].size]
        logits = np.concatenate(parts, axis=0) if parts else None
        return EngineResult(mode=graph.mode, streams=outputs, logits=logits)

    def _execute_partitioned(
        self, graph: ExecutionGraph, x: Optional[np.ndarray]
    ) -> EngineResult:
        if x is None:
            raise ValueError("partitioned execution needs an input batch")
        if not graph.has_fc_round:
            raise ValueError(
                "partitioned graph produces no logits: it has no PartitionFcOp "
                "(every HA program must end with the partial-logit gather)"
            )
        spec = self.resolve_spec(graph.subnet)
        self.last_exchange_bytes = []
        interpret = self._compiled_rounds if self.compiled else self._eager_rounds
        return EngineResult(mode=graph.mode, logits=interpret(graph, spec, x))

    def _partitioned_round(
        self, calls: Sequence[Callable[[], EndpointReply]], sent_values: int
    ) -> List[EndpointReply]:
        """Dispatch one lock-step round and account its gathered replies.

        The one place a partitioned round touches ``last_exchange_bytes``
        and the ``round.*`` metrics — the eager and
        the compiled interpreter differ only in which calls they hand in and
        how many activation values those calls ship (``sent_values``).  The
        values that came back are every array in the replies (halves, or
        partial logits); both directions are counted at the wire itemsize.
        """
        replies, spans, wall = self._dispatch(calls)
        returned = sum(a.size for reply in replies for a in reply.arrays.values())
        round_bytes = (sent_values + returned) * wire_dtype().itemsize
        self.last_exchange_bytes.append(round_bytes)
        self._observe_round("round", round_bytes, spans, wall)
        return replies

    def _eager_rounds(
        self, graph: ExecutionGraph, spec: SubNetSpec, x: np.ndarray
    ) -> np.ndarray:
        """The reference interpreter: every round re-broadcasts the full
        previous activation and gets each device's half back."""
        for index, device in enumerate(graph.devices):
            self.endpoint(device).begin_partition(spec, self.partition.boundaries, index)
        current = x
        prev_blocks: Dict[str, Optional[ChannelSlice]] = dict.fromkeys(graph.devices)
        logits: Optional[np.ndarray] = None
        for op in graph.rounds:
            sent = current.size * len(op.blocks)
            if isinstance(op, PartitionLayerOp):
                calls = [
                    partial(
                        self.endpoint(device).partition_layer,
                        spec, op.layer, block, op.in_slice, current, prev_blocks[device],
                    )
                    for device, block in op.blocks
                ]
                replies = self._partitioned_round(calls, sent)
                current = np.concatenate([r.arrays["half"] for r in replies], axis=1)
                prev_blocks.update(op.blocks)
            else:  # PartitionFcOp
                calls = [
                    partial(
                        self.endpoint(device).partition_fc,
                        spec, block, current[:, block.start : block.stop],
                        include_bias=(block.start == 0),
                    )
                    for device, block in op.blocks
                ]
                replies = self._partitioned_round(calls, sent)
                logits = reduce(np.add, [r.arrays["partial_logits"] for r in replies])
        return logits

    def _compiled_rounds(
        self, graph: ExecutionGraph, spec: SubNetSpec, x: np.ndarray
    ) -> np.ndarray:
        """Delta halo exchange over the devices' compiled plans: a round ships
        each device only its peers' halves, and the last conv round ships
        none — the classifier reads only each device's own block."""
        devices = graph.devices
        for index, device in enumerate(devices):
            self.endpoint(device).begin_partition_plan(
                spec, self.partition.boundaries, index, x.shape[0]
            )
        last_conv = graph.num_layer_rounds - 1
        # device -> (block, half) it shipped in the previous round.
        shipped: Dict[str, Tuple[ChannelSlice, np.ndarray]] = {}
        logits: Optional[np.ndarray] = None
        for op in graph.rounds:
            if isinstance(op, PartitionLayerOp):
                first = op.layer == 0  # the only round that carries the input
                calls = []
                sent = 0
                for device, _ in op.blocks:
                    peers = tuple(shipped[d] for d in devices if d != device and d in shipped)
                    calls.append(
                        partial(
                            self.endpoint(device).partition_round,
                            spec, op.layer, x=x if first else None, peers=peers,
                            need_half=op.layer < last_conv,
                        )
                    )
                    sent += (x.size if first else 0) + sum(h.size for _, h in peers)
                replies = self._partitioned_round(calls, sent)
                shipped = {
                    device: (block, reply.arrays["half"])
                    for (device, block), reply in zip(op.blocks, replies)
                    if "half" in reply.arrays
                }
            else:  # PartitionFcOp
                calls = [
                    partial(
                        self.endpoint(device).partition_fc_round,
                        spec, include_bias=(block.start == 0),
                    )
                    for device, block in op.blocks
                ]
                replies = self._partitioned_round(calls, 0)
                logits = reduce(np.add, [r.arrays["partial_logits"] for r in replies])
        return logits

    # -- reporting -------------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """Measured wall-clock telemetry and the round/stream counters.

        The wall view is what this process measured per dispatched round.
        ``overlap`` EWMAs read 1/k for serialised rounds over k endpoints
        and approach 1.0 under perfect overlap.
        """
        snapshot = self.metrics.snapshot()
        return {
            "compiled": self.compiled,
            "wall": {
                "rounds_s": self._wall_rounds_s,
                "histograms": snapshot["histograms"],
                "overlap": snapshot["ewmas"],
            },
            "counters": snapshot["counters"],
        }

    # -- teardown --------------------------------------------------------------

    def shutdown(self) -> None:
        for lane in self._lanes:
            lane.stop()
        self._lanes = []
        for endpoint in self.endpoints.values():
            endpoint.shutdown()
