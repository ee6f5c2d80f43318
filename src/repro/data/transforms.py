"""Image transforms used by the synthetic dataset generator.

All transforms are callables ``(image, rng) -> image`` over 2-D float
arrays in [0, 1]; :class:`Compose` chains them.  Random parameters are drawn
from the supplied generator only (repo determinism rule).

``scipy.ndimage`` is imported inside the three transforms that use it:
``repro.data`` sits on the serving stack's import path (``models.base``
reads its loaders), and serving never generates a dataset — a module-level
import would put scipy (and the ``numpy.testing`` / ``unittest`` it drags
in) into every serving interpreter and every forked worker.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np


class Compose:
    """Apply transforms in order."""

    def __init__(self, transforms: Sequence[Callable]) -> None:
        self.transforms = list(transforms)

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for t in self.transforms:
            image = t(image, rng)
        return image


class RandomAffine:
    """Random rotation / scale / translation around the image centre."""

    def __init__(
        self,
        max_rotation_deg: float = 15.0,
        scale_range: Tuple[float, float] = (0.85, 1.15),
        max_shift: float = 2.5,
    ) -> None:
        if max_rotation_deg < 0 or max_shift < 0:
            raise ValueError("rotation and shift bounds must be non-negative")
        lo, hi = scale_range
        if not 0 < lo <= hi:
            raise ValueError(f"invalid scale range {scale_range}")
        self.max_rotation_deg = max_rotation_deg
        self.scale_range = scale_range
        self.max_shift = max_shift

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        from scipy import ndimage

        angle = np.deg2rad(rng.uniform(-self.max_rotation_deg, self.max_rotation_deg))
        scale = rng.uniform(*self.scale_range)
        shift = rng.uniform(-self.max_shift, self.max_shift, size=2)

        cos, sin = np.cos(angle), np.sin(angle)
        # Inverse map (output -> input) for ndimage.affine_transform.
        matrix = np.array([[cos, -sin], [sin, cos]]) / scale
        centre = (np.array(image.shape) - 1) / 2.0
        offset = centre - matrix @ (centre + shift)
        return ndimage.affine_transform(image, matrix, offset=offset, order=1, mode="constant")


class GaussianBlur:
    """Gaussian smoothing with per-image random sigma (pen-stroke softness)."""

    def __init__(self, sigma_range: Tuple[float, float] = (0.4, 0.9)) -> None:
        lo, hi = sigma_range
        if not 0 <= lo <= hi:
            raise ValueError(f"invalid sigma range {sigma_range}")
        self.sigma_range = sigma_range

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        sigma = rng.uniform(*self.sigma_range)
        if sigma == 0:
            return image
        from scipy import ndimage

        return ndimage.gaussian_filter(image, sigma=sigma)


class AdditiveNoise:
    """Clipped additive Gaussian pixel noise."""

    def __init__(self, std: float = 0.05) -> None:
        if std < 0:
            raise ValueError("std must be non-negative")
        self.std = std

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.std == 0:
            return image
        return np.clip(image + rng.normal(0.0, self.std, size=image.shape), 0.0, 1.0)


class ElasticDistortion:
    """Elastic deformation (Simard et al., 2003) — handwriting wobble."""

    def __init__(self, alpha: float = 4.0, sigma: float = 3.0) -> None:
        if alpha < 0 or sigma <= 0:
            raise ValueError("alpha must be >=0 and sigma > 0")
        self.alpha = alpha
        self.sigma = sigma

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.alpha == 0:
            return image
        from scipy import ndimage

        dx = ndimage.gaussian_filter(rng.uniform(-1, 1, image.shape), self.sigma) * self.alpha
        dy = ndimage.gaussian_filter(rng.uniform(-1, 1, image.shape), self.sigma) * self.alpha
        ys, xs = np.meshgrid(np.arange(image.shape[0]), np.arange(image.shape[1]), indexing="ij")
        coords = np.stack([ys + dy, xs + dx])
        return ndimage.map_coordinates(image, coords, order=1, mode="constant")


class ContrastJitter:
    """Random gamma-style intensity remapping."""

    def __init__(self, gamma_range: Tuple[float, float] = (0.8, 1.3)) -> None:
        lo, hi = gamma_range
        if not 0 < lo <= hi:
            raise ValueError(f"invalid gamma range {gamma_range}")
        self.gamma_range = gamma_range

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        gamma = rng.uniform(*self.gamma_range)
        return np.clip(image, 0.0, 1.0) ** gamma


def default_augmentation() -> Compose:
    """The augmentation pipeline used by the stock synthetic MNIST recipe."""
    return Compose(
        [
            ElasticDistortion(alpha=3.0, sigma=3.0),
            RandomAffine(max_rotation_deg=14.0, scale_range=(0.85, 1.15), max_shift=2.5),
            GaussianBlur(sigma_range=(0.4, 0.9)),
            ContrastJitter(gamma_range=(0.85, 1.25)),
            AdditiveNoise(std=0.04),
        ]
    )
