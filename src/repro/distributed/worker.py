"""The worker side of the wire: the one message loop, and a device codec on it.

:class:`WorkerLoop` is the only worker-side message loop: recv → handler →
reply, under one error policy.  A worker declares what it serves as a table
from message kind to handler; :class:`~repro.scheduler.procpool.ProcessWorker`
serves a frontend's ``RUN_PARTS`` batches in a forked process, and
:class:`WorkerServer` serves a Master: standalone sub-network inference (HT
mode), partitioned layer steps (HA mode), and heartbeats.  A Worker owns the
full slimmable weight store (models are small; what matters for the paper's
reliability argument is which *certified* slices it may run, not artificial
weight withholding).  Each handler decodes a request, calls the
:class:`~repro.engine.endpoints.LocalEndpoint` method the master would have
called had the device been in its own process, and encodes the reply.  The
kernels, the compiled plans and the liveness tick all live in that
endpoint; the server keeps only what the eager wire protocol itself needs
(its previous half).

Failure injection: a :class:`~repro.device.emulated.CrashCounter` makes the
worker die after N requests — it stops responding and closes its transport,
exactly what a power failure looks like from the Master's side.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.comm.message import (
    Message,
    MessageKind,
    error_message,
    exception_message,
    result_message,
)
from repro.comm.transport import Transport, TransportError
from repro.comm.wire import WireError, cast_for_wire
from repro.device.emulated import EmulatedDevice
from repro.engine.endpoints import EndpointReply, EndpointUnavailable, LocalEndpoint
from repro.engine.graph import BlockPartition
from repro.slimmable.spec import ChannelSlice, SubNetSpec
from repro.utils.dtypes import compute_dtype
from repro.utils.logging import get_logger

#: The worker's block of the two-way partition (the master owns block 0).
WORKER_BLOCK = 1


class WorkerLoop:
    """Serves one peer over one transport: the loop and its error policy.

    ``HANDLERS`` maps a message kind to the name of the method answering
    it; a handler returns the reply, or closes the transport to end the
    loop without one.  The policy belongs to the loop, not to a handler:

    * SHUTDOWN, or a lost transport, ends the loop;
    * a handler that raises, a kind with no handler, and a frame that
      arrived whole but does not decode are each answered with ERROR, and
      the loop keeps serving.
    """

    HANDLERS: Dict[str, str] = {MessageKind.SHUTDOWN: "_shutdown"}

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.logger = get_logger("worker")

    def serve_forever(self) -> None:
        """Handle requests until SHUTDOWN, a handler's close, or transport loss
        (polled every half second)."""
        while not self.transport.closed:
            try:
                message = self.transport.recv(timeout=0.5)
            except WireError as exc:  # the frame was consumed whole: still in sync
                reply = exception_message(exc)
            except TransportError:
                continue  # a poll timeout; a lost transport has closed itself
            else:
                reply = self._handle(message)
            if self.transport.closed:
                return
            try:
                self.transport.send(reply)
            except TransportError:
                return

    def _handle(self, message: Message) -> Optional[Message]:
        name = self.HANDLERS.get(message.kind)
        if name is None:
            return error_message(f"unsupported message kind {message.kind!r}")
        try:
            return getattr(self, name)(message)
        except Exception as exc:  # noqa: BLE001 - reported to the peer; keep serving
            self._failed(message, exc)
            return exception_message(exc)

    def _failed(self, message: Message, exc: Exception) -> None:
        """A handler raised ``exc``; its ERROR reply follows."""
        self.logger.warning("%s request failed", message.kind, exc_info=True)

    def _shutdown(self, message: Message) -> None:
        self.transport.close()


class WorkerServer(WorkerLoop):
    """Serves one Master's device requests through a ``LocalEndpoint``."""

    HANDLERS = {
        **WorkerLoop.HANDLERS,
        MessageKind.PING: "_ping",
        MessageKind.CRASH: "_crash",
        MessageKind.RUN_SUBNET: "_run_subnet",
        MessageKind.PARTIAL_FORWARD: "_round",
        MessageKind.PARTITION_ROUND: "_round",
    }

    def __init__(
        self,
        device: EmulatedDevice,
        transport: Transport,
        *,
        partition_split: int,
    ) -> None:
        super().__init__(transport)
        self.device = device
        # The shared block geometry: the worker owns the upper block of the
        # same two-way partition the engine compiles HA plans against.
        self.partition = BlockPartition.two_way(
            partition_split, device.net.width_spec.max_width
        )
        self.endpoint = LocalEndpoint(device.name, device)
        self.logger = get_logger(f"worker.{device.name}")
        # The eager protocol ships only the master's channels each round; the
        # worker reassembles the full activation around its own previous half.
        self._ha_half: Optional[np.ndarray] = None
        self._ha_spec: Optional[SubNetSpec] = None

    def _failed(self, message: Message, exc: Exception) -> None:
        if isinstance(exc, EndpointUnavailable):
            # The device died serving this request: vanish as a crash does.
            self.transport.close()
            return
        super()._failed(message, exc)
        self._ha_half = self._ha_spec = None  # the failed request ends its session
        self.endpoint.abandon_partition()

    def _ping(self, message: Message) -> Message:
        if not self.endpoint.ping():
            raise EndpointUnavailable(f"device {self.device.name!r} is down")
        return Message(MessageKind.PONG, fields={"device": self.device.name})

    def _crash(self, message: Message) -> None:
        # Simulated power failure: vanish without a reply.
        self.device.crash()
        self.transport.close()

    # -- handlers -----------------------------------------------------------------

    @staticmethod
    def _encode(reply: EndpointReply, **fields) -> Message:
        """An endpoint reply as a RESULT message, arrays cast to the wire dtype.

        ``transport.send`` encodes it before the next message is read, so
        arena views (halves, partial logits) go out uncopied.
        """
        arrays = {name: cast_for_wire(a) for name, a in reply.arrays.items()}
        return result_message(arrays, **fields)

    def _run_subnet(self, message: Message) -> Message:
        spec = self.device.net.width_spec.find(message.fields["spec"])
        reply = self.endpoint.run_subnet(spec, message.arrays["x"])
        return self._encode(reply, spec=spec.name)

    def _round(self, message: Message) -> Message:
        """One HA round, eager (PARTIAL_FORWARD) or compiled (PARTITION_ROUND)."""
        eager = message.kind == MessageKind.PARTIAL_FORWARD
        op = message.fields["op"]
        spec = self.device.net.width_spec.find(message.fields["spec"])
        if op == "layer":
            layer_op = self._partial_layer if eager else self._plan_layer
            return layer_op(message, spec, int(message.fields["layer"]))
        if op == "fc":
            return (self._partial_fc if eager else self._plan_fc)(message, spec)
        raise ValueError(f"unknown {message.kind} op {op!r}")

    # -- eager partitioned rounds (PARTIAL_FORWARD) ----------------------------

    def _partial_layer(self, message: Message, spec: SubNetSpec, layer: int) -> Message:
        if layer == 0:
            self.endpoint.begin_partition(spec, self.partition.boundaries, WORKER_BLOCK)
            full = message.arrays["input"]
            in_slice = None
        else:
            if self._ha_half is None or self._ha_spec != spec:
                raise ValueError("partitioned session out of order: no stored half")
            master_half = message.arrays["master_half"].astype(compute_dtype())
            full = np.concatenate([master_half, self._ha_half], axis=1)
            in_slice = spec.conv_slices[layer - 1]
        block = self.partition.clipped_block(WORKER_BLOCK, spec.conv_slices[layer].stop)
        reply = self.endpoint.partition_layer(spec, layer, block, in_slice, full, None)
        self._ha_half, self._ha_spec = reply.arrays["half"], spec
        return self._encode(reply, layer=layer)

    def _partial_fc(self, message: Message, spec: SubNetSpec) -> Message:
        if self._ha_half is None or self._ha_spec != spec:
            raise ValueError("partitioned session out of order: no stored features")
        block = self.partition.clipped_block(WORKER_BLOCK, spec.last_slice.stop)
        reply = self.endpoint.partition_fc(spec, block, self._ha_half, include_bias=False)
        self._ha_half = self._ha_spec = None
        return self._encode(reply)

    # -- compiled partitioned rounds (PARTITION_ROUND, delta halo exchange) ----

    def _plan_layer(self, message: Message, spec: SubNetSpec, layer: int) -> Message:
        fields = message.fields
        need_half = bool(fields.get("need_half", True))
        if layer == 0:
            # The plan parameters ride on the first round message (the
            # engine's begin_partition_plan is message-free), so a compiled
            # batch costs exactly as many messages as an eager one.
            self.endpoint.begin_partition_plan(
                spec,
                tuple(int(b) for b in fields["boundaries"]),
                int(fields["index"]),
                int(fields["rows"]),
            )
            reply = self.endpoint.partition_round(
                spec, 0, x=message.arrays["input"], need_half=need_half
            )
        else:
            peers = [
                (ChannelSlice(int(start), int(stop)), message.arrays[f"peer{j}"])
                for j, (start, stop) in enumerate(fields.get("peers", ()))
            ]
            reply = self.endpoint.partition_round(
                spec, layer, peers=peers, need_half=need_half
            )
        return self._encode(reply, layer=layer)

    def _plan_fc(self, message: Message, spec: SubNetSpec) -> Message:
        include_bias = bool(message.fields.get("include_bias", False))
        return self._encode(self.endpoint.partition_fc_round(spec, include_bias))
