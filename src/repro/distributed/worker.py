"""Worker-side protocol server: a message codec around one ``LocalEndpoint``.

A Worker owns the full slimmable weight store (models are small; what
matters for the paper's reliability argument is which *certified* slices it
may run, not artificial weight withholding) and serves the Master's
requests: standalone sub-network inference (HT mode), partitioned layer
steps (HA mode), and heartbeats.

Each handler decodes a request, calls the
:class:`~repro.engine.endpoints.LocalEndpoint` method the master would have
called had the device been in its own process, and encodes the reply.  The
kernels, the compiled plans, the liveness tick, the busy clock and
``requests_served`` all live in that endpoint; the server keeps only what
the eager wire protocol itself needs (its previous half).

Failure injection: a :class:`~repro.device.emulated.CrashCounter` makes the
worker die after N requests — it stops responding and closes its transport,
exactly what a power failure looks like from the Master's side.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comm.message import Message, MessageKind, error_message, result_message
from repro.comm.transport import Transport, TransportError
from repro.comm.wire import cast_for_wire
from repro.device.emulated import EmulatedDevice
from repro.engine.endpoints import EndpointReply, EndpointUnavailable, LocalEndpoint
from repro.engine.graph import BlockPartition
from repro.slimmable.spec import ChannelSlice, SubNetSpec
from repro.utils.dtypes import compute_dtype
from repro.utils.logging import get_logger

#: The worker's block of the two-way partition (the master owns block 0).
WORKER_BLOCK = 1


class WorkerServer:
    """Serves one Master over one transport until shutdown or crash."""

    def __init__(
        self,
        device: EmulatedDevice,
        transport: Transport,
        *,
        partition_split: int,
    ) -> None:
        self.device = device
        self.transport = transport
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

    # -- main loop -------------------------------------------------------------

    def serve_forever(self, poll_timeout: float = 0.5) -> None:
        """Handle requests until SHUTDOWN, CRASH, or transport loss."""
        while True:
            try:
                message = self.transport.recv(timeout=poll_timeout)
            except TransportError:
                if self.transport.closed:
                    return
                continue
            if not self._handle(message):
                return

    def _handle(self, message: Message) -> bool:
        """Dispatch one message; returns False when the loop should stop."""
        if message.kind == MessageKind.SHUTDOWN:
            self.transport.close()
            return False
        if message.kind == MessageKind.CRASH:
            # Simulated power failure: vanish without a reply.
            self.device.crash()
            self.transport.close()
            return False
        try:
            reply = self._dispatch(message)
        except EndpointUnavailable:
            # The device died serving this request: same as above.
            self.transport.close()
            return False
        except Exception as exc:  # noqa: BLE001 - reported to the master; keep serving
            self.logger.warning("%s request failed", message.kind, exc_info=True)
            self._drop_session()
            reply = error_message(f"{type(exc).__name__}: {exc}")
        try:
            self.transport.send(reply)
        except TransportError:
            return False
        return True

    def _drop_session(self) -> None:
        self._ha_half = self._ha_spec = None
        self.endpoint.abandon_partition()

    def _dispatch(self, message: Message) -> Message:
        if message.kind == MessageKind.PING:
            if not self.endpoint.ping():
                raise EndpointUnavailable(f"device {self.device.name!r} is down")
            return Message(MessageKind.PONG, fields={"device": self.device.name})
        if message.kind == MessageKind.RUN_SUBNET:
            return self._run_subnet(message)
        if message.kind == MessageKind.PARTIAL_FORWARD:
            return self._round(message, self._partial_layer, self._partial_fc)
        if message.kind == MessageKind.PARTITION_ROUND:
            return self._round(message, self._plan_layer, self._plan_fc)
        return error_message(f"unsupported message kind {message.kind!r}")

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
        return self._encode(reply, spec=spec.name, compute_s=reply.compute_s)

    def _round(self, message: Message, layer_op, fc_op) -> Message:
        op = message.fields["op"]
        spec = self.device.net.width_spec.find(message.fields["spec"])
        if op == "layer":
            return layer_op(message, spec, int(message.fields["layer"]))
        if op == "fc":
            return fc_op(message, spec)
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
