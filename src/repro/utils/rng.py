"""Deterministic random-number plumbing.

The repository-wide convention is that no module ever touches global numpy
random state.  Components receive a :class:`numpy.random.Generator`; one
configured by value (a seed crossing a process boundary, a per-request
payload) derives its own stream with :func:`derive_seed`, so adding a
consumer never perturbs the stream seen by another.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from any seed-like value.

    Accepts ``None`` (non-deterministic), an ``int`` seed, an existing
    ``Generator`` (returned unchanged) or a ``SeedSequence``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def derive_seed(seed: int, *labels: Union[str, int]) -> int:
    """Derive a stable 63-bit seed from a base seed and a label path.

    Used when a component is configured by value (e.g. across process
    boundaries) and cannot share a live ``Generator`` object.
    """
    ss = np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF] + [_label_to_int(x) for x in labels])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


def _label_to_int(label: Union[str, int]) -> int:
    if isinstance(label, int):
        return label & 0xFFFFFFFF
    acc = 0
    for ch in str(label):
        acc = (acc * 131 + ord(ch)) & 0xFFFFFFFF
    return acc


def check_rng(rng: Optional[np.random.Generator], where: str) -> np.random.Generator:
    """Validate that ``rng`` is a Generator, with a helpful error message."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"{where} requires a numpy.random.Generator, got {type(rng).__name__}")
    return rng
