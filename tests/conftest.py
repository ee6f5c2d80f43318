"""Shared fixtures.

Training-dependent fixtures are session-scoped and use deliberately tiny
configurations so the whole suite stays fast; accuracy-sensitive assertions
live in the benchmarks, not here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.data.synth_mnist import SynthMNISTConfig, load_synth_mnist
from repro.experiments.paper import analytic_facts, fig2_facts
from repro.nn.shm import reap_orphaned_segments
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import WidthSpec, paper_width_spec
from repro.training.recipes import RecipeConfig, train_family
from repro.utils.rng import make_rng


@pytest.fixture(scope="session", autouse=True)
def _no_orphaned_segments():
    """Start from a /dev/shm holding no segment of a killed process, so the
    leak tests' before/after counts see only what the suite creates."""
    reap_orphaned_segments()


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(1234)


@pytest.fixture(scope="session")
def paper_spec() -> WidthSpec:
    return paper_width_spec()


@pytest.fixture(scope="session")
def small_spec() -> WidthSpec:
    """A reduced sub-network family for fast structural tests."""
    return WidthSpec(max_width=8, lower_widths=(2, 4, 6, 8), split=4, num_convs=3)


@pytest.fixture
def paper_net(paper_spec) -> SlimmableConvNet:
    return SlimmableConvNet(paper_spec, rng=make_rng(0))


@pytest.fixture
def small_net(small_spec) -> SlimmableConvNet:
    return SlimmableConvNet(small_spec, rng=make_rng(0))


@pytest.fixture(scope="session")
def tiny_data():
    """(train, test) synthetic MNIST pair small enough for in-test training."""
    return load_synth_mnist(SynthMNISTConfig(num_train=1500, num_test=300, seed=11))


@pytest.fixture(scope="session")
def tiny_recipe() -> RecipeConfig:
    return RecipeConfig(epochs=1, niters=1)


@pytest.fixture(scope="session")
def trained_models(tiny_data, tiny_recipe):
    """All three families trained on the tiny dataset (session-cached)."""
    train, _ = tiny_data
    models = {}
    for family in ("static", "dynamic", "fluid"):
        model, _ = train_family(family, train, rng=make_rng(5), config=tiny_recipe)
        models[family] = model
    return models


@pytest.fixture(scope="session")
def tiny_record(trained_models, tiny_data):
    """A paper record of the tiny models: the analytic half, and the Fig. 2
    block of the trained half (no ablations)."""
    _, test = tiny_data
    return {"analytic": analytic_facts(), "trained": {"fig2": fig2_facts(trained_models, test)}}


@pytest.fixture(scope="session")
def fluid_model(trained_models):
    return trained_models["fluid"]


def random_images(rng: np.random.Generator, n: int = 4, size: int = 28) -> np.ndarray:
    return rng.standard_normal((n, 1, size, size))
