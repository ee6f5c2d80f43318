"""Worker-side protocol server.

A Worker owns the full slimmable weight store (models are small; what
matters for the paper's reliability argument is which *certified* slices it
may run, not artificial weight withholding) and serves the Master's
requests: standalone sub-network inference (HT mode), partitioned layer
steps (HA mode), and heartbeats.

Failure injection: a :class:`~repro.device.emulated.CrashCounter` makes the
worker die after N requests — it stops responding and closes its transport,
exactly what a power failure looks like from the Master's side.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.comm.message import Message, MessageKind, error_message, result_message
from repro.comm.transport import Transport, TransportError
from repro.comm.wire import cast_for_wire
from repro.device.cost import block_partitioned_costs, partitioned_device_costs, subnet_num_layers
from repro.device.emulated import DeviceFailed, EmulatedDevice
from repro.distributed.partitioned import (
    conv_block_half,
    fc_partial,
    feature_slice_for_block,
    flatten_channel_block,
)
from repro.engine.graph import BlockPartition
from repro.slimmable.spec import ChannelSlice, SubNetSpec
from repro.utils.dtypes import compute_dtype
from repro.utils.logging import get_logger


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
        self.split = partition_split
        # The shared block geometry: the worker owns the upper block of the
        # same two-way partition the engine compiles HA plans against.
        self.partition = BlockPartition.two_way(
            partition_split, device.net.width_spec.max_width
        )
        self.logger = get_logger(f"worker.{device.name}")
        self._ha_half: Optional[np.ndarray] = None
        self._ha_spec: Optional[SubNetSpec] = None
        # Compiled-path state (PARTITION_ROUND protocol).
        self._plan_compiler = None  # lazy PartitionPlanCompiler
        self._plan = None
        self._plan_run = None
        # Per-layer cost tables are pure functions of (spec, boundaries);
        # memoised so accounting is not recomputed every round.
        self._cost_cache: Dict[tuple, list] = {}

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
        except DeviceFailed:
            self.transport.close()
            return False
        except (ValueError, KeyError) as exc:
            reply = error_message(f"{type(exc).__name__}: {exc}")
        try:
            self.transport.send(reply)
        except TransportError:
            return False
        return True

    def _dispatch(self, message: Message) -> Message:
        if message.kind == MessageKind.PING:
            self.device._check_alive()
            return Message(MessageKind.PONG, fields={"device": self.device.name})
        if message.kind == MessageKind.RUN_SUBNET:
            return self._run_subnet(message)
        if message.kind == MessageKind.PARTIAL_FORWARD:
            return self._partial_forward(message)
        if message.kind == MessageKind.PARTITION_ROUND:
            return self._partition_round(message)
        return error_message(f"unsupported message kind {message.kind!r}")

    # -- handlers -----------------------------------------------------------------

    def _run_subnet(self, message: Message) -> Message:
        spec = self.device.net.width_spec.find(message.fields["spec"])
        x = message.arrays["x"]
        logits = self.device.execute_subnet(spec, x)
        compute_s = self.device.estimated_latency(spec) * x.shape[0]
        return result_message(
            {"logits": cast_for_wire(logits)},
            spec=spec.name,
            compute_s=compute_s,
        )

    def _partial_forward(self, message: Message) -> Message:
        self.device._check_alive()
        op = message.fields["op"]
        spec = self.device.net.width_spec.find(message.fields["spec"])
        if op == "layer":
            return self._partial_layer(message, spec)
        if op == "fc":
            return self._partial_fc(spec)
        raise ValueError(f"unknown partial_forward op {op!r}")

    def _partial_layer(self, message: Message, spec: SubNetSpec) -> Message:
        layer = int(message.fields["layer"])
        net = self.device.net
        if layer == 0:
            full = message.arrays["input"]
            self._ha_spec = spec
            in_slice = None
        else:
            if self._ha_half is None or self._ha_spec is None or self._ha_spec != spec:
                raise ValueError("partitioned session out of order: no stored half")
            master_half = message.arrays["master_half"].astype(compute_dtype())
            full = np.concatenate([master_half, self._ha_half], axis=1)
            in_slice = spec.conv_slices[layer - 1]
        out_slice = spec.conv_slices[layer]
        upper = self.partition.clipped_block(1, out_slice.stop)
        half = conv_block_half(net, layer, full, upper, in_slice)
        self._ha_half = half
        self._account_partial_compute(spec, layer)
        return result_message({"half": cast_for_wire(half)}, layer=layer)

    def _partial_fc(self, spec: SubNetSpec) -> Message:
        if self._ha_half is None or self._ha_spec != spec:
            raise ValueError("partitioned session out of order: no stored features")
        net = self.device.net
        upper = self.partition.clipped_block(1, spec.last_slice.stop)
        feats = flatten_channel_block(self._ha_half)
        logits = fc_partial(net, feats, feature_slice_for_block(net, upper), include_bias=False)
        self._account_partial_compute(spec, len(spec.conv_slices))
        self._ha_half = None
        self._ha_spec = None
        return result_message({"partial_logits": cast_for_wire(logits)})

    # -- compiled partitioned rounds (delta halo exchange) ---------------------

    def _partition_round(self, message: Message) -> Message:
        self.device._check_alive()
        op = message.fields["op"]
        spec = self.device.net.width_spec.find(message.fields["spec"])
        if op == "layer":
            return self._plan_layer(message, spec)
        if op == "fc":
            return self._plan_fc(message, spec)
        raise ValueError(f"unknown partition_round op {op!r}")

    def _plan_layer(self, message: Message, spec: SubNetSpec) -> Message:
        layer = int(message.fields["layer"])
        need_half = bool(message.fields.get("need_half", True))
        if layer == 0:
            # The plan parameters ride on the first round message (the
            # engine's begin_partition_plan is message-free), so a compiled
            # batch costs exactly as many messages as an eager one.
            from repro.engine.dist_plan import PartitionPlanCompiler

            if self._plan_compiler is None:
                self._plan_compiler = PartitionPlanCompiler(self.device.net)
            boundaries = tuple(int(b) for b in message.fields["boundaries"])
            index = int(message.fields["index"])
            rows = int(message.fields["rows"])
            plan = self._plan_compiler.plan_for(spec, boundaries, index, rows)
            if self._plan_run is not None:  # previous batch abandoned mid-flight
                self._plan.finish(self._plan_run)
            self._plan = plan
            self._plan_run = plan.begin(rows)
            plan.scatter_input(self._plan_run, message.arrays["input"])
        else:
            if self._plan_run is None or self._plan.spec.name != spec.name:
                raise ValueError("compiled partitioned session out of order")
            for j, (start, stop) in enumerate(message.fields.get("peers", ())):
                self._plan.absorb(
                    self._plan_run,
                    layer,
                    ChannelSlice(int(start), int(stop)),
                    message.arrays[f"peer{j}"],
                )
        half = self._plan.run_layer(self._plan_run, layer)
        self._account_plan_compute(spec, layer)
        arrays = {}
        if need_half and half is not None:
            arrays["half"] = cast_for_wire(half)
        return result_message(arrays, layer=layer)

    def _plan_fc(self, message: Message, spec: SubNetSpec) -> Message:
        if self._plan_run is None or self._plan.spec.name != spec.name:
            raise ValueError("compiled partitioned session out of order")
        include_bias = bool(message.fields.get("include_bias", False))
        logits = self._plan.run_fc(self._plan_run, include_bias)
        # Copy before releasing the workspace: the logits are an arena view.
        out = np.array(cast_for_wire(logits), copy=True)
        self._account_plan_compute(spec, len(spec.conv_slices))
        self._plan.finish(self._plan_run)
        self._plan_run = None
        return result_message({"partial_logits": out})

    def _account_plan_compute(self, spec: SubNetSpec, layer: int) -> None:
        """Same device-clock charges as the eager path, over the plan's blocks."""
        key = (spec.name, self._plan.boundaries, self._plan.index)
        costs = self._cost_cache.get(key)
        if costs is None:
            per_device, _ = block_partitioned_costs(
                self.device.net, spec, self._plan.boundaries
            )
            costs = self._cost_cache[key] = per_device[self._plan.index]
        profile = self.device.profile
        self.device.busy_time_s += (
            profile.compute_time(costs[layer].flops, 0) + profile.layer_overhead_s
        )
        self.device.requests_served += 1

    def _account_partial_compute(self, spec: SubNetSpec, layer: int) -> None:
        key = (spec.name, self.split)
        costs = self._cost_cache.get(key)
        if costs is None:
            _, worker_costs, _ = partitioned_device_costs(
                self.device.net, spec, self.split
            )
            costs = self._cost_cache[key] = worker_costs
        flops = costs[layer].flops
        per_layer_overhead = self.device.profile.layer_overhead_s
        self.device.busy_time_s += self.device.profile.compute_time(flops, 0) + per_layer_overhead
        self.device.requests_served += 1
