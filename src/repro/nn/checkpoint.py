"""Checkpoint I/O.

State dicts are saved as plain ``.npz`` archives (no pickle) so checkpoints
are portable and safe to load.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np


def save_state(path: str, state: Dict[str, np.ndarray]) -> None:
    """Write a state dict to ``path`` as a compressed npz archive."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez_compressed(path, **state)


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Read a state dict written by :func:`save_state`."""
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key].copy() for key in archive.files}
