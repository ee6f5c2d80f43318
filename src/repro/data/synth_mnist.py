"""Synthetic MNIST-like dataset.

The paper evaluates on MNIST; the reproduction downloads nothing, so we
generate an MNIST-shaped stand-in: 28x28 grayscale digit images rendered
from glyph bitmaps with randomized elastic/affine/blur/noise distortion.
A small CNN reaches the same high-90s accuracy band as on MNIST, which is
what the paper's accuracy comparisons need (relations between model
variants, not absolute MNIST scores).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.glyphs import NUM_CLASSES, all_glyphs, upsample
from repro.data.transforms import Compose, default_augmentation
from repro.utils.rng import check_rng

IMAGE_SIZE = 28
_GLYPH_UPSAMPLE = 3  # 7x5 glyph -> 21x15 canvas artwork


@dataclass(frozen=True)
class SynthMNISTConfig:
    """Generation parameters for one dataset draw."""

    num_train: int = 8000
    num_test: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_train <= 0 or self.num_test <= 0:
            raise ValueError("dataset sizes must be positive")


@lru_cache(maxsize=None)
def _glyph_art() -> np.ndarray:
    """The ten upsampled glyphs, ``(10, 21, 15)``, built once: index = digit."""
    art = np.stack([upsample(g, _GLYPH_UPSAMPLE) for g in all_glyphs()])
    art.flags.writeable = False
    return art


def render_digit(
    digit: int,
    rng: np.random.Generator,
    transform: Optional[Compose] = None,
) -> np.ndarray:
    """Render one distorted digit image in [0, 1] of shape ``(IMAGE_SIZE, IMAGE_SIZE)``."""
    check_rng(rng, "render_digit")
    if not 0 <= digit < NUM_CLASSES:
        raise ValueError(f"digit must be in 0..9, got {digit}")
    art = _glyph_art()[digit]
    canvas = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    top = (IMAGE_SIZE - art.shape[0]) // 2
    left = (IMAGE_SIZE - art.shape[1]) // 2
    canvas[top : top + art.shape[0], left : left + art.shape[1]] = art
    if transform is None:
        transform = default_augmentation()
    return np.clip(transform(canvas, rng), 0.0, 1.0)


def generate_images(
    num: int,
    rng: np.random.Generator,
    transform: Optional[Compose] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``num`` images with balanced class labels.

    Returns ``(images, labels)`` with images ``(num, 1, IMAGE_SIZE, IMAGE_SIZE)``.
    """
    check_rng(rng, "generate_images")
    if num <= 0:
        raise ValueError("num must be positive")
    if transform is None:
        transform = default_augmentation()
    labels = rng.integers(0, NUM_CLASSES, size=num)
    images = np.empty((num, 1, IMAGE_SIZE, IMAGE_SIZE))
    for i, digit in enumerate(labels):
        images[i, 0] = render_digit(int(digit), rng, transform)
    return images, labels.astype(np.int64)


def load_synth_mnist(
    config: Optional[SynthMNISTConfig] = None,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Generate the train/test pair for a config (deterministic per seed)."""
    cfg = config or SynthMNISTConfig()
    train_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    test_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    transform = default_augmentation()
    train = ArrayDataset(*generate_images(cfg.num_train, train_rng, transform))
    test = ArrayDataset(*generate_images(cfg.num_test, test_rng, transform))
    return train, test
