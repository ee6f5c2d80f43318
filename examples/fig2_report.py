"""Regenerate the paper's Fig. 2 end-to-end.

Trains all three model families at full fidelity (this is the slow part,
several minutes), evaluates every availability scenario and mode, and
prints the throughput/accuracy table next to the paper's reported numbers
together with the qualitative shape checks.

Run:  python examples/fig2_report.py [--fast]
"""

import argparse
import time

from repro.data.synth_mnist import SynthMNISTConfig, load_synth_mnist
from repro.experiments.fig2 import run_fig2
from repro.experiments.report import format_fig2_table, format_shape_checks, shape_checks
from repro.training.recipes import RecipeConfig, train_family
from repro.training.trainer import TrainConfig
from repro.utils.rng import make_rng


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="small dataset / fewer epochs (~1 min)"
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    if args.fast:
        data_cfg = SynthMNISTConfig(num_train=2000, num_test=500, seed=0)
        recipe = RecipeConfig(stage=TrainConfig(epochs=1, lr=0.05), niters=2)
    else:
        data_cfg = SynthMNISTConfig(num_train=6000, num_test=1500, seed=0)
        recipe = RecipeConfig(stage=TrainConfig(epochs=2, lr=0.05), niters=3)

    print(f"Generating data ({data_cfg.num_train} train / {data_cfg.num_test} test)...")
    train_set, test_set = load_synth_mnist(data_cfg)

    models = {}
    for family in ("static", "dynamic", "fluid"):
        t0 = time.time()
        models[family], _ = train_family(
            family, train_set, rng=make_rng(args.seed), config=recipe
        )
        print(f"  trained {family} in {time.time() - t0:.0f}s")

    result = run_fig2(models, test_set)
    print()
    print(format_fig2_table(result))
    print()
    print(format_shape_checks(shape_checks(result)))


if __name__ == "__main__":
    main()
