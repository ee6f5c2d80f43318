"""Setup shim.

The build environment has no ``wheel`` package (offline), so PEP 517
editable installs fail; this shim lets ``pip install -e .`` use the legacy
``setup.py develop`` path.  There is no pyproject.toml and no metadata
beyond this file.

Dependencies: ``numpy`` for everything; ``scipy`` only where ``repro.data``
generates the synthetic dataset (``data/transforms.py`` imports
``scipy.ndimage`` inside the transforms that call it), i.e. training,
``tests/data``, the training tests and ``benchmarks/bench_paper.py``.
Serving — ``repro.scheduler``, ``repro.runtime``, ``repro.engine``,
``repro.distributed``, ``python -m repro`` — imports without it
(``tests/test_import_graph.py``).  ``pytest`` and ``hypothesis`` for tests.
"""

from setuptools import setup

setup()
