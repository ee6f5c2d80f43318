"""Shared utilities: deterministic RNG plumbing, configuration, logging.

Everything stochastic in :mod:`repro` takes an explicit
:class:`numpy.random.Generator`; :func:`repro.utils.rng.make_rng` is the one
place generators are created so experiments are reproducible per seed.
"""

from repro.utils.rng import make_rng
from repro.utils.config import Config
from repro.utils.dtypes import (
    DtypePolicy,
    dtype_policy,
    get_dtype_policy,
    resolve_dtype_policy,
    set_dtype_policy,
)
from repro.utils.logging import get_logger

__all__ = [
    "make_rng",
    "Config",
    "get_logger",
    "DtypePolicy",
    "dtype_policy",
    "get_dtype_policy",
    "set_dtype_policy",
    "resolve_dtype_policy",
]
