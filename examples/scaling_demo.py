"""Extension demo: Fluid beyond two devices.

Runs the analytical throughput model on N even channel blocks, one per
device (the paper's two devices are N = 2): High-Throughput scaling and
worst-case throughput after k failures for 2/4/8-device clusters.

Run:  python examples/scaling_demo.py   (finishes in seconds)
"""

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.graph import BlockPartition
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import WidthSpec
from repro.utils.rng import make_rng


def main() -> None:
    print("N-device Fluid scaling (even channel blocks, identical devices):")
    print(f"  {'N':>3s} {'HT img/s':>9s} {'HA img/s':>9s}  worst-case after k failures")
    for n in (2, 4, 8):
        spec = WidthSpec(
            max_width=16,
            lower_widths=tuple(16 * k // n for k in range(1, n + 1)),
            split=16 // n,
            num_convs=3,
        )
        net = SlimmableConvNet(spec, rng=make_rng(0))
        device = jetson_nx_master()
        partition = BlockPartition.even(n, 16)
        model = SystemThroughputModel(net, device, device, CommLatencyModel(), partition)
        num_convs = len(net.convs)
        ht = model.ht_throughput(*(partition.block_spec(k, num_convs) for k in range(n)))
        ha = model.ha_throughput(partition.combined_spec(num_convs))
        profile = model.reliability_profile()
        decay = " ".join(f"k={k}:{profile[k]:5.1f}" for k in range(n + 1))
        print(f"  {n:3d} {ht.throughput_ips:9.1f} {ha.throughput_ips:9.1f}  {decay}")
    print("\nAny k < N failures leave the system serving: each block is its")
    print("own standalone model, which is the paper's property at N = 2.")


if __name__ == "__main__":
    main()
