"""Worker process entry point.

Run as ``python -m repro.distributed.worker_main --port P --weights W.npz``.
Builds the paper's model architecture, loads the trained weights, and
serves a Master over TCP.  Used by :mod:`repro.distributed.cluster` to
stand up a real multi-process edge cluster on localhost.
"""

from __future__ import annotations

import argparse
import sys

from repro.comm.tcp import TcpListener
from repro.device.emulated import EmulatedDevice
from repro.device.profiles import jetson_nx_worker
from repro.distributed.worker import WorkerServer
from repro.nn.checkpoint import load_state
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import WidthSpec
from repro.utils.rng import make_rng


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="Fluid DyDNN worker device")
    parser.add_argument("--port", type=int, required=True, help="TCP port to listen on")
    parser.add_argument("--weights", type=str, required=True, help="npz checkpoint path")
    parser.add_argument("--max-width", type=int, default=16)
    parser.add_argument("--lower-widths", type=int, nargs="+", default=[4, 8, 12, 16])
    parser.add_argument("--split", type=int, default=8)
    parser.add_argument("--num-convs", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    width_spec = WidthSpec(
        max_width=args.max_width,
        lower_widths=tuple(args.lower_widths),
        split=args.split,
        num_convs=args.num_convs,
    )
    net = SlimmableConvNet(width_spec, rng=make_rng(0))
    net.load_state_dict(load_state(args.weights))
    net.train(False)

    device = EmulatedDevice(jetson_nx_worker(), net)
    listener = TcpListener(args.port)
    # Signal readiness (the bound port) on stdout for the cluster launcher.
    print(f"READY {listener.address[1]}", flush=True)
    try:
        transport = listener.accept(timeout=30.0)
        server = WorkerServer(device, transport, partition_split=args.split)
        server.serve_forever()
    finally:
        listener.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
