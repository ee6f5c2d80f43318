"""Datasets and loaders.

The paper evaluates on MNIST; the reproduction downloads nothing, so
:mod:`repro.data.synth_mnist` renders a deterministic MNIST-shaped stand-in.
"""
