"""Engine parity against the legacy master/worker runtime.

For every Fig. 2 availability scenario (BOTH, ONLY_MASTER, ONLY_WORKER)
the unified :class:`~repro.engine.engine.ExecutionEngine` must produce the
same logits, bit for bit, as the pre-engine two-device ``MasterRuntime``
did.  The legacy runtime no longer exists in the tree, so
:class:`LegacyMasterReference` below re-implements its inference (every
float cast as the seed revision had it) on top of the still-unchanged wire
protocol; both sides drive identically-seeded nets over identically-seeded
inputs.  Emulated time is not compared: the engine keeps none, and
:class:`~repro.distributed.throughput.SystemThroughputModel` is its one
source.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.comm.message import Message, MessageKind
from repro.comm.transport import InProcChannel, TransportError
from repro.device.emulated import EmulatedDevice
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.master import MasterRuntime
from repro.distributed.worker import WorkerServer
from repro.engine.modes import MASTER, WORKER, Scenario
from repro.engine.partitioned import (
    conv_block_half,
    fc_partial,
    feature_slice_for_block,
    flatten_channel_block,
)
from repro.engine.plan import ha_plan, ht_plan, solo_plan
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import ChannelSlice, SubNetSpec, paper_width_spec
from repro.utils.rng import make_rng

SPLIT = 8
SEED = 0


class LegacyMasterReference:
    """The seed revision's MasterRuntime inference, preserved for parity.

    Every float cast below reproduces the deleted legacy implementation
    line-for-line; if the engine and this reference ever disagree, the
    engine regressed.
    """

    def __init__(self, device, transport, *, partition_split):
        self.device = device
        self.transport = transport
        self.split = partition_split

    def _request(self, message: Message) -> Message:
        self.transport.send(message)
        reply = self.transport.recv(timeout=10.0)
        if reply.kind == MessageKind.ERROR:
            raise AssertionError(f"worker error: {reply.fields.get('reason')}")
        return reply

    def run_local(self, spec: SubNetSpec, x: np.ndarray) -> np.ndarray:
        return self.device.execute_subnet(spec, x)

    def run_remote(self, spec: SubNetSpec, x: np.ndarray) -> np.ndarray:
        reply = self._request(
            Message(
                MessageKind.RUN_SUBNET,
                fields={"spec": spec.name},
                arrays={"x": x.astype(np.float32)},
            )
        )
        return reply.arrays["logits"].astype(np.float64)

    def run_ht(self, master_spec, worker_spec, x_master, x_worker) -> Tuple:
        logits_w = self.run_remote(worker_spec, x_worker)
        logits_m = self.device.execute_subnet(master_spec, x_master)
        return logits_m, logits_w

    def run_ha(self, spec: SubNetSpec, x: np.ndarray) -> np.ndarray:
        net = self.device.net
        lower = ChannelSlice(0, self.split)

        current = x
        in_slice: Optional[ChannelSlice] = None
        master_half: Optional[np.ndarray] = None
        for layer, out_slice in enumerate(spec.conv_slices):
            if layer == 0:
                request = Message(
                    MessageKind.PARTIAL_FORWARD,
                    fields={"op": "layer", "layer": 0, "spec": spec.name},
                    arrays={"input": x.astype(np.float32)},
                )
            else:
                request = Message(
                    MessageKind.PARTIAL_FORWARD,
                    fields={"op": "layer", "layer": layer, "spec": spec.name},
                    arrays={"master_half": master_half.astype(np.float32)},
                )
            master_half = conv_block_half(net, layer, current, lower, in_slice)
            reply = self._request(request)
            worker_half = reply.arrays["half"].astype(np.float64)
            current = np.concatenate([master_half, worker_half], axis=1)
            in_slice = out_slice

        feats_m = flatten_channel_block(current[:, : self.split])
        logits_m = fc_partial(
            net, feats_m, feature_slice_for_block(net, lower), include_bias=True
        )
        reply = self._request(
            Message(MessageKind.PARTIAL_FORWARD, fields={"op": "fc", "spec": spec.name})
        )
        return logits_m + reply.arrays["partial_logits"].astype(np.float64)

    def shutdown(self) -> None:
        try:
            self.transport.send(Message(MessageKind.SHUTDOWN))
        except TransportError:
            pass
        self.transport.close()


def _make_pair():
    """One served worker + master device pair on a freshly-seeded net."""
    net = SlimmableConvNet(paper_width_spec(), rng=make_rng(SEED))
    chan = InProcChannel()
    worker_device = EmulatedDevice(jetson_nx_worker(), net)
    server = WorkerServer(worker_device, chan.b, partition_split=SPLIT)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    master_device = EmulatedDevice(jetson_nx_master(), net)
    return master_device, chan.a, thread


@pytest.fixture
def parity_pair():
    """(engine, legacy reference, width spec) over identically-seeded worlds."""
    e_master, e_chan, e_thread = _make_pair()
    l_master, l_chan, l_thread = _make_pair()
    engine = MasterRuntime(e_master, e_chan, partition_split=SPLIT).engine
    legacy = LegacyMasterReference(l_master, l_chan, partition_split=SPLIT)
    yield engine, legacy, e_master.net.width_spec
    engine.shutdown()
    legacy.shutdown()
    e_thread.join(timeout=5.0)
    l_thread.join(timeout=5.0)


def _batch(n: int = 6) -> np.ndarray:
    return make_rng(42).standard_normal((n, 1, 28, 28))


class TestFig2ScenarioParity:
    """One parity case per Fig. 2 availability scenario (plus HT for BOTH)."""

    def test_only_master_solo(self, parity_pair):
        engine, legacy, width = parity_pair
        assert Scenario.ONLY_MASTER.alive == frozenset({"master"})
        spec = width.find("lower50")
        x = _batch()
        out_engine = engine.execute(solo_plan(MASTER, spec.name), x).logits
        out_legacy = legacy.run_local(spec, x)
        np.testing.assert_array_equal(out_engine, out_legacy)

    def test_only_worker_solo(self, parity_pair):
        engine, legacy, width = parity_pair
        assert Scenario.ONLY_WORKER.alive == frozenset({"worker"})
        spec = width.find("upper50")
        x = _batch()
        out_engine = engine.execute(solo_plan(WORKER, spec.name), x).logits
        out_legacy = legacy.run_remote(spec, x)
        np.testing.assert_array_equal(out_engine, out_legacy)

    def test_both_high_accuracy(self, parity_pair):
        engine, legacy, width = parity_pair
        assert Scenario.BOTH.alive == frozenset({"master", "worker"})
        spec = width.find("lower100")
        x = _batch()
        out_engine = engine.execute(ha_plan(spec.name), x).logits
        out_legacy = legacy.run_ha(spec, x)
        np.testing.assert_array_equal(out_engine, out_legacy)

    def test_both_high_throughput(self, parity_pair):
        engine, legacy, width = parity_pair
        spec_m = width.find("lower50")
        spec_w = width.find("upper50")
        x_m = _batch()
        x_w = make_rng(43).standard_normal((6, 1, 28, 28))
        streams = engine.execute(
            ht_plan(spec_m.name, spec_w.name), streams={MASTER: x_m, WORKER: x_w}
        ).streams
        em, ew = streams[MASTER], streams[WORKER]
        lm, lw = legacy.run_ht(spec_m, spec_w, x_m, x_w)
        np.testing.assert_array_equal(em, lm)
        np.testing.assert_array_equal(ew, lw)
