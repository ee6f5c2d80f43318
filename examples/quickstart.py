"""Quickstart: train a Fluid DyDNN and inspect its sub-networks.

Trains the paper's 3-conv CNN with nested incremental training (Algorithm 1)
on synthetic MNIST, then shows the property that makes the model "fluid":
every sub-network — including the upper slices — works standalone.

Run:  python examples/quickstart.py
Takes about a minute on a laptop.
"""

from repro.data.synth_mnist import SynthMNISTConfig, load_synth_mnist
from repro.device.cost import subnet_flops, subnet_param_count
from repro.training.recipes import RecipeConfig, train_family
from repro.utils.rng import make_rng


def main() -> None:
    print("Generating synthetic MNIST (no network access needed)...")
    train_set, test_set = load_synth_mnist(SynthMNISTConfig(num_train=3000, num_test=800, seed=0))

    print("Training a Fluid DyDNN with nested incremental training (Algorithm 1)...")
    config = RecipeConfig(epochs=1, niters=2)
    model, history = train_family("fluid", train_set, rng=make_rng(42), config=config)
    print(f"  trained through {len(history)} stage-epochs: {history.stages()}\n")

    print(f"{'sub-network':12s} {'accuracy':>9s} {'params':>8s} {'FLOPs':>9s}  standalone?")
    print("-" * 55)
    for spec in model.width_spec.all_specs():
        acc = model.evaluate(spec.name, test_set)
        params = subnet_param_count(model.net, spec)
        flops = subnet_flops(model.net, spec)
        standalone = "yes" if model.is_standalone_certified(spec.name) else "no"
        print(f"{spec.name:12s} {acc:9.4f} {params:8d} {flops:9d}  {standalone}")

    lower, upper = model.independent_pair()
    print(
        f"\nHigh-Throughput pair: {lower} (Master) + {upper} (Worker) — "
        "independent sub-networks over shared weights."
    )
    print(
        "The upper models read none of the lower channels' weights, so either\n"
        "device keeps serving if the other one dies (paper Fig. 1b/1c)."
    )


if __name__ == "__main__":
    main()
