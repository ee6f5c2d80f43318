"""Shared utilities: deterministic RNG plumbing, dtype policy, logging.

Everything stochastic in :mod:`repro` takes an explicit
:class:`numpy.random.Generator`; :func:`repro.utils.rng.make_rng` is the one
place generators are created so experiments are reproducible per seed.
"""

# benchmarks/e2e/workloads.py imports these names from the package root.
from repro.utils.rng import make_rng
