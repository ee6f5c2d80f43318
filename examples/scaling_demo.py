"""Extension demo: Fluid beyond two devices.

Runs the analytical N-device generalisation: High-Throughput scaling and
worst-case throughput after k failures for 2/4/8-device clusters.

Run:  python examples/scaling_demo.py   (finishes in seconds)
"""

from repro.comm import CommLatencyModel
from repro.device import jetson_nx_master
from repro.distributed.multidevice import BlockPartition, MultiDeviceModel
from repro.slimmable import SlimmableConvNet, WidthSpec
from repro.utils import make_rng


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
        model = MultiDeviceModel(
            net, [jetson_nx_master()] * n, CommLatencyModel(), BlockPartition.even(n, 16)
        )
        profile = model.reliability_profile()
        decay = " ".join(f"k={k}:{profile[k]:5.1f}" for k in range(n + 1))
        print(
            f"  {n:3d} {model.ht_throughput(range(n)):9.1f} "
            f"{model.ha_throughput(range(n)):9.1f}  {decay}"
        )
    print("\nAny k < N failures leave the system serving: each block is its")
    print("own standalone model, which is the paper's property at N = 2.")


if __name__ == "__main__":
    main()
