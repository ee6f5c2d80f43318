"""Datasets and loaders.

The paper evaluates on MNIST; the reproduction downloads nothing, so
:mod:`repro.data.synth_mnist` renders a deterministic MNIST-shaped stand-in.
"""

from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.data.synth_mnist import (
    IMAGE_SIZE,
    SynthMNISTConfig,
    generate_images,
    load_synth_mnist,
    render_digit,
)
from repro.data.transforms import (
    AdditiveNoise,
    Compose,
    ContrastJitter,
    ElasticDistortion,
    GaussianBlur,
    RandomAffine,
    default_augmentation,
)

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "SynthMNISTConfig",
    "load_synth_mnist",
    "generate_images",
    "render_digit",
    "IMAGE_SIZE",
    "Compose",
    "RandomAffine",
    "GaussianBlur",
    "AdditiveNoise",
    "ElasticDistortion",
    "ContrastJitter",
    "default_augmentation",
]
