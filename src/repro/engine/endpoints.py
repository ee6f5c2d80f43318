"""Pluggable execution endpoints: where a device's compute actually runs.

An :class:`Endpoint` answers the engine's three requests — standalone
sub-network inference, one width-partitioned layer round, and the final
partial-logit gather — plus liveness and teardown.  Two implementations:

* :class:`LocalEndpoint` runs directly on an in-process
  :class:`~repro.device.emulated.EmulatedDevice`;
* :class:`TransportEndpoint` speaks the master/worker wire protocol over
  any :class:`~repro.comm.transport.Transport` (in-process channel or TCP),
  so the same engine drives a remote
  :class:`~repro.distributed.worker.WorkerServer` unchanged.  It also
  carries the process pool's ``run_parts`` op; built with an
  ``alive_probe`` it waits out a slow peer inside
  :meth:`~TransportEndpoint.await_reply` and fails only a dead one.

All endpoint compute is stateless with respect to activations: standalone
sub-network runs execute under per-call non-recording
:class:`~repro.nn.context.ForwardContext`\\ s (see
:meth:`EmulatedDevice.execute_subnet`), and the partitioned rounds call the
stateless kernels in :mod:`repro.distributed.partitioned` directly — no
endpoint ever caches activations on the shared net, and no call mutates it,
so any number of :class:`~repro.engine.session.InferenceSession`\\ s may
share the endpoints' weight store.

Emulated-time accounting mirrors the historical master runtime exactly:
local endpoints report their per-layer compute seconds (and charge the
device's busy clock); transport endpoints report the wire payload of each
request/reply pair so the engine can charge the communication model.  The
worker behind a transport serves through a :class:`LocalEndpoint` of its
own, so a device's clock reads the same on either side of the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.comm.message import Message, MessageKind
from repro.comm.transport import Transport, TransportError
from repro.comm.wire import cast_for_wire
from repro.device.cost import LayerCost, block_partitioned_costs
from repro.device.emulated import DeviceFailed, EmulatedDevice
from repro.distributed.partitioned import (
    conv_block_half,
    fc_partial,
    feature_slice_for_block,
    flatten_channel_block,
)
from repro.nn.plan import InferencePlan, PackedWeightCache
from repro.slimmable.spec import ChannelSlice, SubNetSpec
from repro.utils.dtypes import compute_dtype


class EndpointUnavailable(RuntimeError):
    """Raised when an endpoint's device cannot be reached (the failure signal)."""


class EndpointError(EndpointUnavailable):
    """The peer answered ERROR: it is up and the transport still in sync,
    only this request failed.  ``error`` names the exception type the peer
    raised (None when the reply names none) and ``detail`` its message."""

    def __init__(self, message: str, error: Optional[str], detail: Optional[str]) -> None:
        super().__init__(message)
        self.error = error
        self.detail = detail


@dataclass
class EndpointReply:
    """One endpoint response plus its accounting facts."""

    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    fields: Dict[str, Any] = field(default_factory=dict)
    compute_s: float = 0.0   # emulated seconds to charge the engine ledger
    payload_bytes: int = 0   # max(sent, received) wire bytes (0 for local)


class Endpoint:
    """One device's execution surface, local or remote."""

    name: str

    @property
    def available(self) -> bool:
        raise NotImplementedError

    def ping(self, timeout: float = 1.0) -> bool:
        raise NotImplementedError

    def run_subnet(self, spec: SubNetSpec, x: np.ndarray) -> EndpointReply:
        raise NotImplementedError

    def begin_partition(
        self, spec: SubNetSpec, boundaries: Sequence[int], index: int
    ) -> None:
        """Start a width-partitioned program; remote peers keep their own state."""

    def partition_layer(
        self,
        spec: SubNetSpec,
        layer: int,
        block: ChannelSlice,
        in_slice: Optional[ChannelSlice],
        full: np.ndarray,
        prev_block: Optional[ChannelSlice],
    ) -> EndpointReply:
        """Compute this device's ``block`` of conv ``layer``.

        ``full`` is the complete previous activation (the input image at
        layer 0); ``prev_block`` is the channel block this device produced
        in the previous round (None at layer 0).
        """
        raise NotImplementedError

    def partition_fc(
        self,
        spec: SubNetSpec,
        block: ChannelSlice,
        features: np.ndarray,
        include_bias: bool,
    ) -> EndpointReply:
        """Partial logits from ``features``, this device's own ``block`` of
        the last activation (remote peers kept theirs and ignore it)."""
        raise NotImplementedError

    # -- compiled partitioned program (delta halo exchange) --------------------

    def begin_partition_plan(
        self, spec: SubNetSpec, boundaries: Sequence[int], index: int, rows: int
    ) -> None:
        """Start a *compiled* partitioned program for one batch of ``rows``.

        Unlike :meth:`begin_partition`, this also pins the batch geometry so
        the endpoint can check a pre-sized workspace out.  Transport
        endpoints send nothing here — the plan parameters ride on the
        layer-0 round message, keeping message counts identical to the
        eager protocol.
        """
        raise NotImplementedError

    def partition_round(
        self,
        spec: SubNetSpec,
        layer: int,
        x: Optional[np.ndarray] = None,
        peers: Sequence[Tuple[ChannelSlice, np.ndarray]] = (),
        need_half: bool = True,
    ) -> EndpointReply:
        """One compiled conv round under delta halo exchange.

        Layer 0 carries the input batch ``x``; later rounds carry only the
        *peers'* halves of the previous activation (this device already
        holds its own half in its arena).  When ``need_half`` is False (the
        last conv round) the reply ships no activation at all.
        """
        raise NotImplementedError

    def partition_fc_round(self, spec: SubNetSpec, include_bias: bool) -> EndpointReply:
        """Final compiled round: partial logits from the locally-kept features."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release the endpoint (remote peers are told to stop serving)."""

    def crash(self) -> None:
        """Test hook: simulate a power failure on the device."""


class LocalEndpoint(Endpoint):
    """Runs directly on an in-process emulated device.

    The one copy of a device's side of a round: the master's own endpoint,
    every ``MultiDeviceRuntime`` block and (behind the wire codec) the
    :class:`~repro.distributed.worker.WorkerServer` all serve through it.
    Every call ticks the device's liveness once — a crash-after-N counter
    counts calls, i.e. protocol messages — and a
    :class:`~repro.device.emulated.DeviceFailed` surfaces as the engine's
    failure signal, :class:`EndpointUnavailable`.

    Standalone sub-networks (solo and High-Throughput streams) run through
    one compiled :class:`~repro.nn.plan.InferencePlan` per spec, whose
    arena grows to the largest batch seen; partitioned rounds through the
    compiler's per-device plans.  Both pack from one
    :class:`~repro.nn.plan.PackedWeightCache` per endpoint.
    """

    def __init__(self, name: str, device: EmulatedDevice) -> None:
        self.name = name
        self.device = device
        self._partition_costs: Optional[Tuple[str, list]] = None
        self._partition_cost_cache: Dict[tuple, list] = {}
        self._cache = PackedWeightCache()
        self._subnet_plans: Dict[SubNetSpec, InferencePlan] = {}
        self._compiler: Optional[Any] = None  # PartitionPlanCompiler, lazy
        self._plan: Optional[Any] = None      # DevicePartitionPlan of the open run
        self._run: Optional[Any] = None       # its checked-out _PartitionRun

    @property
    def available(self) -> bool:
        return self.device.alive

    def _tick(self) -> None:
        try:
            self.device._check_alive()
        except DeviceFailed as exc:
            raise EndpointUnavailable(str(exc)) from exc

    def ping(self, timeout: float = 1.0) -> bool:
        try:
            self._tick()
        except EndpointUnavailable:
            return False
        return True

    def run_subnet(self, spec: SubNetSpec, x: np.ndarray) -> EndpointReply:
        plan = self._subnet_plans.get(spec)
        if plan is None or plan.batch_rows < len(x):
            plan = InferencePlan.compile(
                self.device.net, spec,
                batch_rows=max(len(x), plan.batch_rows if plan else 1),
                cache=self._cache,
            )
            self._subnet_plans[spec] = plan
        try:
            logits = self.device.execute_subnet(spec, x, plan)  # ticks liveness itself
        except DeviceFailed as exc:
            raise EndpointUnavailable(str(exc)) from exc
        compute_s = self.device.estimated_latency(spec) * x.shape[0]
        return EndpointReply(arrays={"logits": logits}, compute_s=compute_s)

    # -- partitioned program ---------------------------------------------------

    def begin_partition(
        self, spec: SubNetSpec, boundaries: Sequence[int], index: int
    ) -> None:
        # Keyed by the spec's value (a frozen dataclass), so a spec looked
        # up again under the same name hits, and one re-registered with
        # other slices does not.
        key = (spec, tuple(boundaries), index)
        costs = self._partition_cost_cache.get(key)
        if costs is None:
            per_device, _ = block_partitioned_costs(
                self.device.net, spec, tuple(boundaries)
            )
            costs = self._partition_cost_cache[key] = per_device[index]
        self._partition_costs = (spec.name, costs)

    def abandon_partition(self) -> None:
        """Drop the open partitioned program (a peer or a request failed mid-batch)."""
        if self._run is not None:
            self._plan.finish(self._run)
            self._run = None
        self._partition_costs = None

    def _open_round(self, spec: SubNetSpec, layer: int) -> LayerCost:
        """Liveness tick, then this device's cost entry for round ``layer``."""
        self._tick()
        if self._partition_costs is None or self._partition_costs[0] != spec.name:
            raise RuntimeError("partition round before begin_partition")
        costs = self._partition_costs[1]
        if not 0 <= layer < len(costs):
            raise IndexError(f"{spec.name} has no round {layer}")
        return costs[layer]

    def _close_round(
        self, arrays: Dict[str, np.ndarray], cost: LayerCost, rows: int
    ) -> EndpointReply:
        """Charge a finished round to the device; reply with the ledger's seconds.

        The historical master runtime's formulas (``tests/engine/test_parity.py``):
        conv rounds charge the busy clock for the whole batch; the classifier
        round does not, and counts the batch as one request served.
        """
        profile = self.device.profile
        if cost.name == "fc":
            self.device.requests_served += 1
        else:
            self.device.busy_time_s += profile.compute_time(cost.flops * rows, rows)
        return EndpointReply(
            arrays=arrays, compute_s=profile.compute_time(cost.flops, 1) * rows
        )

    def partition_layer(
        self,
        spec: SubNetSpec,
        layer: int,
        block: ChannelSlice,
        in_slice: Optional[ChannelSlice],
        full: np.ndarray,
        prev_block: Optional[ChannelSlice],
    ) -> EndpointReply:
        cost = self._open_round(spec, layer)
        half = conv_block_half(self.device.net, layer, full, block, in_slice)
        return self._close_round({"half": half}, cost, full.shape[0])

    def partition_fc(
        self,
        spec: SubNetSpec,
        block: ChannelSlice,
        features: np.ndarray,
        include_bias: bool,
    ) -> EndpointReply:
        cost = self._open_round(spec, len(spec.conv_slices))
        net = self.device.net
        logits = fc_partial(
            net,
            flatten_channel_block(features),
            feature_slice_for_block(net, block),
            include_bias=include_bias,
        )
        return self._close_round({"partial_logits": logits}, cost, features.shape[0])

    # -- compiled partitioned program ------------------------------------------

    def begin_partition_plan(
        self, spec: SubNetSpec, boundaries: Sequence[int], index: int, rows: int
    ) -> None:
        from repro.engine.dist_plan import PartitionPlanCompiler

        self.abandon_partition()  # a batch left open by a peer crashing mid-round
        self.begin_partition(spec, boundaries, index)
        if self._compiler is None or self._compiler.net is not self.device.net:
            self._compiler = PartitionPlanCompiler(self.device.net, cache=self._cache)
        self._plan = self._compiler.plan_for(spec, tuple(boundaries), index, rows)
        self._run = self._plan.begin(rows)

    def _require_run(self):
        if self._run is None:
            raise RuntimeError("compiled partition round before begin_partition_plan")
        return self._plan, self._run

    def partition_round(
        self,
        spec: SubNetSpec,
        layer: int,
        x: Optional[np.ndarray] = None,
        peers: Sequence[Tuple[ChannelSlice, np.ndarray]] = (),
        need_half: bool = True,
    ) -> EndpointReply:
        cost = self._open_round(spec, layer)
        plan, run = self._require_run()
        if layer == 0:
            if x is None:
                raise ValueError("layer 0 round needs the input batch")
            plan.scatter_input(run, x)
        else:
            for block, half in peers:
                plan.absorb(run, layer, block, half)
        half = plan.run_layer(run, layer)
        arrays = {"half": half} if (need_half and half is not None) else {}
        return self._close_round(arrays, cost, run.rows)

    def partition_fc_round(self, spec: SubNetSpec, include_bias: bool) -> EndpointReply:
        cost = self._open_round(spec, len(spec.conv_slices))
        plan, run = self._require_run()
        logits = plan.run_fc(run, include_bias)
        # The logits view stays valid until the next begin_partition_plan
        # re-acquires the workspace; the engine consumes it within the round.
        plan.finish(run)
        self._run = None
        return self._close_round({"partial_logits": logits}, cost, run.rows)


class TransportEndpoint(Endpoint):
    """Speaks the wire protocol to a remote worker over a transport."""

    def __init__(
        self,
        name: str,
        transport: Optional[Transport],
        *,
        request_timeout: float = 10.0,
        alive_probe: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.transport = transport
        self.request_timeout = request_timeout
        # Optional () -> bool liveness oracle independent of the transport
        # (e.g. ``Process.is_alive`` for a process-pool worker).  With a
        # probe installed, a recv timeout on an open transport whose peer
        # probes alive means "slow", and the wait goes on.
        self.alive_probe = alive_probe
        # Optional fault-injection hook consulted before each reply wait
        # (see repro.faults.injector).  It may sleep (a delayed reply) or
        # raise TransportError (a dropped message); the slow-vs-dead
        # classification below then applies unchanged.  Never set by
        # production code — None costs one attribute check per wait.
        self.intercept: Optional[Callable[[], None]] = None
        self._pending_sent_bytes = 0
        self._plan_session: Optional[Tuple[Tuple[int, ...], int, int]] = None

    @property
    def available(self) -> bool:
        return self.transport is not None and not self.transport.closed

    def ping(self, timeout: float = 1.0) -> bool:
        return self.pong(timeout) is not None

    def pong(self, timeout: float = 1.0) -> Optional[Message]:
        """PING the peer: its PONG (whose fields a peer may fill), or None."""
        if not self.available:
            return None
        try:
            self.transport.send(Message(MessageKind.PING))
            reply = self.transport.recv(timeout=timeout)
        except TransportError:
            return None
        return reply if reply.kind == MessageKind.PONG else None

    def _request(self, message: Message) -> EndpointReply:
        if not self.available:
            raise EndpointUnavailable(f"no transport to {self.name}")
        try:
            self.transport.send(message)
        except TransportError as exc:
            raise EndpointUnavailable(str(exc)) from exc
        self._pending_sent_bytes = sum(a.nbytes for a in message.arrays.values())
        return self.await_reply()

    def await_reply(self) -> EndpointReply:
        """The reply to the request in flight, with its accounting facts.

        Slow is not dead.  Without an ``alive_probe`` one ``request_timeout``
        bounds the wait.  With one, the wait goes on a timeout at a time,
        re-consulting ``intercept`` each time, while the transport stays
        open and the peer probes alive: the reply is still coming, and a
        re-*send* would desynchronise request/reply pairing (stragglers are
        the hedge watchdog's problem).  :class:`EndpointUnavailable` once
        the probe fails or the transport closes (hard failures close it),
        or when the peer answers ERROR.
        """
        while True:
            try:
                if self.intercept is not None:
                    self.intercept()
                reply = self.transport.recv(timeout=self.request_timeout)
                break
            except TransportError as exc:
                if not (self.alive_probe is not None and self.available and self.alive_probe()):
                    raise EndpointUnavailable(str(exc)) from exc
        if reply.kind == MessageKind.ERROR:
            raise EndpointError(
                f"{self.name} error: {reply.fields.get('reason')}",
                reply.fields.get("error"),
                reply.fields.get("detail"),
            )
        payload = max(
            self._pending_sent_bytes,
            sum(a.nbytes for a in reply.arrays.values()),
        )
        compute_s = float(reply.fields.get("compute_s", 0.0))
        return EndpointReply(reply.arrays, reply.fields, compute_s, int(payload))

    def run_subnet(self, spec: SubNetSpec, x: np.ndarray) -> EndpointReply:
        reply = self._request(
            Message(
                MessageKind.RUN_SUBNET,
                fields={"spec": spec.name},
                arrays={"x": cast_for_wire(x)},
            )
        )
        reply.arrays = {"logits": reply.arrays["logits"].astype(compute_dtype())}
        return reply

    def run_parts(
        self,
        width: str,
        fields: Dict[str, Any],
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> EndpointReply:
        """One micro-batch flush crossing the process boundary as one message.

        ``fields`` describes where the rows live — normally a shared-memory
        ring placement (``{"ring_offset", "rows", "row_shape", "dtype"}``)
        so no row bytes touch the wire; ``arrays`` is the inline fallback
        for batches that outgrow the ring.  The reply mirrors the choice:
        ring replies carry only an output placement descriptor.
        """
        return self._request(
            Message(
                MessageKind.RUN_PARTS,
                fields={"spec": width, **fields},
                arrays=dict(arrays or {}),
            )
        )

    def partition_layer(
        self,
        spec: SubNetSpec,
        layer: int,
        block: ChannelSlice,
        in_slice: Optional[ChannelSlice],
        full: np.ndarray,
        prev_block: Optional[ChannelSlice],
    ) -> EndpointReply:
        if layer == 0:
            arrays = {"input": cast_for_wire(full)}
        else:
            if prev_block is None:
                raise ValueError("partition round >0 needs the previous block")
            if prev_block.stop < full.shape[1]:
                raise ValueError(
                    "transport endpoints must own the topmost channel block "
                    "(the wire protocol ships only the channels below it)"
                )
            arrays = {"master_half": cast_for_wire(full[:, : prev_block.start])}
        reply = self._request(
            Message(
                MessageKind.PARTIAL_FORWARD,
                fields={"op": "layer", "layer": layer, "spec": spec.name},
                arrays=arrays,
            )
        )
        half = reply.arrays["half"].astype(compute_dtype())
        return EndpointReply(arrays={"half": half}, payload_bytes=reply.payload_bytes)

    def partition_fc(
        self,
        spec: SubNetSpec,
        block: ChannelSlice,
        features: np.ndarray,
        include_bias: bool,
    ) -> EndpointReply:
        if include_bias:
            raise ValueError("the classifier bias is owned by the first (local) block")
        reply = self._request(
            Message(MessageKind.PARTIAL_FORWARD, fields={"op": "fc", "spec": spec.name})
        )
        logits = reply.arrays["partial_logits"].astype(compute_dtype())
        return EndpointReply(arrays={"partial_logits": logits}, payload_bytes=reply.payload_bytes)

    # -- compiled partitioned program ------------------------------------------

    def begin_partition_plan(
        self, spec: SubNetSpec, boundaries: Sequence[int], index: int, rows: int
    ) -> None:
        # Message-free: the plan parameters are folded into the layer-0
        # round message so the compiled protocol exchanges exactly as many
        # messages per batch as the eager one (comm accounting stays
        # comparable).
        self._plan_session = (tuple(int(b) for b in boundaries), int(index), int(rows))

    def partition_round(
        self,
        spec: SubNetSpec,
        layer: int,
        x: Optional[np.ndarray] = None,
        peers: Sequence[Tuple[ChannelSlice, np.ndarray]] = (),
        need_half: bool = True,
    ) -> EndpointReply:
        fields: Dict[str, Any] = {
            "op": "layer",
            "layer": int(layer),
            "spec": spec.name,
            "need_half": bool(need_half),
        }
        arrays: Dict[str, np.ndarray] = {}
        if layer == 0:
            session = getattr(self, "_plan_session", None)
            if session is None:
                raise ValueError("layer 0 round before begin_partition_plan")
            if x is None:
                raise ValueError("layer 0 round needs the input batch")
            boundaries, index, rows = session
            fields.update(boundaries=list(boundaries), index=index, rows=rows)
            arrays["input"] = cast_for_wire(x)
        else:
            blocks = []
            for j, (block, half) in enumerate(peers):
                arrays[f"peer{j}"] = cast_for_wire(half)
                blocks.append([int(block.start), int(block.stop)])
            fields["peers"] = blocks
        reply = self._request(
            Message(MessageKind.PARTITION_ROUND, fields=fields, arrays=arrays)
        )
        out: Dict[str, np.ndarray] = {}
        if "half" in reply.arrays:
            out["half"] = reply.arrays["half"].astype(compute_dtype())
        return EndpointReply(arrays=out, payload_bytes=reply.payload_bytes)

    def partition_fc_round(self, spec: SubNetSpec, include_bias: bool) -> EndpointReply:
        reply = self._request(
            Message(
                MessageKind.PARTITION_ROUND,
                fields={"op": "fc", "spec": spec.name, "include_bias": bool(include_bias)},
            )
        )
        logits = reply.arrays["partial_logits"].astype(compute_dtype())
        return EndpointReply(arrays={"partial_logits": logits}, payload_bytes=reply.payload_bytes)

    def shutdown(self) -> None:
        if self.available:
            try:
                self.transport.send(Message(MessageKind.SHUTDOWN))
            except TransportError:
                pass
            self.transport.close()

    def crash(self) -> None:
        if self.available:
            try:
                self.transport.send(Message(MessageKind.CRASH))
            except TransportError:
                pass
