"""Digit glyph bitmaps — the seed artwork for the synthetic MNIST dataset.

Each digit is a 7x5 binary matrix (classic seven-row font).  The synthetic
dataset (:mod:`repro.data.synth_mnist`) upsamples these, applies random
affine distortion, stroke-thickness variation, blur and noise to produce
28x28 grayscale images that play the role of MNIST in the paper's
evaluation (:mod:`repro.data.synth_mnist` gives the reason for the
substitution).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

_GLYPH_ROWS: Dict[int, tuple] = {
    0: (
        "01110",
        "10001",
        "10011",
        "10101",
        "11001",
        "10001",
        "01110",
    ),
    1: (
        "00100",
        "01100",
        "00100",
        "00100",
        "00100",
        "00100",
        "01110",
    ),
    2: (
        "01110",
        "10001",
        "00001",
        "00010",
        "00100",
        "01000",
        "11111",
    ),
    3: (
        "11111",
        "00010",
        "00100",
        "00010",
        "00001",
        "10001",
        "01110",
    ),
    4: (
        "00010",
        "00110",
        "01010",
        "10010",
        "11111",
        "00010",
        "00010",
    ),
    5: (
        "11111",
        "10000",
        "11110",
        "00001",
        "00001",
        "10001",
        "01110",
    ),
    6: (
        "00110",
        "01000",
        "10000",
        "11110",
        "10001",
        "10001",
        "01110",
    ),
    7: (
        "11111",
        "00001",
        "00010",
        "00100",
        "01000",
        "01000",
        "01000",
    ),
    8: (
        "01110",
        "10001",
        "10001",
        "01110",
        "10001",
        "10001",
        "01110",
    ),
    9: (
        "01110",
        "10001",
        "10001",
        "01111",
        "00001",
        "00010",
        "01100",
    ),
}

GLYPH_HEIGHT = 7
GLYPH_WIDTH = 5
NUM_CLASSES = 10


def glyph(digit: int) -> np.ndarray:
    """Binary ``(7, 5)`` float array for ``digit`` in 0..9."""
    if digit not in _GLYPH_ROWS:
        raise ValueError(f"digit must be in 0..9, got {digit}")
    rows = _GLYPH_ROWS[digit]
    return np.array([[float(c) for c in row] for row in rows])


def all_glyphs() -> np.ndarray:
    """Stacked ``(10, 7, 5)`` glyph array, index = digit."""
    return np.stack([glyph(d) for d in range(NUM_CLASSES)])


def upsample(bitmap: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour upsample by an integer factor."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    return np.kron(bitmap, np.ones((factor, factor)))
