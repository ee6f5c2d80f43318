"""High-Accuracy vs High-Throughput: the adaptability trade-off.

Shows (a) the two operating modes' throughput/latency breakdown on the
calibrated emulated testbed, and (b) how the HT-vs-HA throughput gap moves
as the device link gets faster or slower — the crossover analysis behind
the paper's claim that comm overhead caps distributed Static DNNs.

Run:  python examples/modes_demo.py   (finishes in seconds)
"""

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.utils.rng import make_rng


def main() -> None:
    net = SlimmableConvNet(paper_width_spec(), rng=make_rng(0))
    ws = net.width_spec
    comm = CommLatencyModel()
    tm = SystemThroughputModel(net, jetson_nx_master(), jetson_nx_worker(), comm)

    print("Operating modes on the calibrated testbed (paper Fig. 2 regime):\n")
    ha = tm.ha_throughput(ws.full())
    ht = tm.ht_throughput(ws.find("lower50"), ws.find("upper50"))
    print(
        f"  HA (joint 100% model):   {ha.throughput_ips:5.1f} img/s   "
        f"compute m/w = {1e3*ha.compute_s[0]:.1f}/{1e3*ha.compute_s[1]:.1f} ms, "
        f"comm = {1e3*ha.comm_s:.1f} ms"
    )
    print(
        f"  HT (independent halves): {ht.throughput_ips:5.1f} img/s   "
        f"per-stream latency m/w = {1e3*ht.compute_s[0]:.1f}/{1e3*ht.compute_s[1]:.1f} ms"
    )
    print(f"  -> HT/HA throughput ratio: {ht.throughput_ips / ha.throughput_ips:.2f}x\n")

    print("Link-speed sweep (scaling the offline-measured comm latency):")
    print(f"  {'comm scale':>10s} {'HA img/s':>9s} {'HT img/s':>9s} {'HT/HA':>6s}")
    for scale in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        scaled = CommLatencyModel(
            base_latency_s=comm.base_latency_s * scale,
            bandwidth_bytes_per_s=comm.bandwidth_bytes_per_s / max(scale, 1e-9)
            if scale > 0
            else 1e15,
        )
        tm_s = SystemThroughputModel(net, jetson_nx_master(), jetson_nx_worker(), scaled)
        ha_s = tm_s.ha_throughput(ws.full()).throughput_ips
        ht_s = tm_s.ht_throughput(ws.find("lower50"), ws.find("upper50")).throughput_ips
        print(f"  {scale:10.2f} {ha_s:9.2f} {ht_s:9.2f} {ht_s / ha_s:6.2f}")
    print(
        "\nHT never pays the link, so its advantage grows with comm cost;\n"
        "even with a free link, per-layer overhead keeps HT ahead on this model."
    )


if __name__ == "__main__":
    main()
