"""Fluid Dynamic DNNs — reliable and adaptive distributed inference.

Reproduction of Xun et al., "Fluid Dynamic DNNs for Reliable and Adaptive
Distributed Inference on Edge Devices" (DATE 2024).  The README's module
map is the system inventory; ``REPRO.json``, written by
``benchmarks/bench_paper.py``, is the paper-vs-measured record.

Subpackages
-----------
- :mod:`repro.nn` — from-scratch numpy DNN framework (PyTorch substitute).
- :mod:`repro.slimmable` — width-sliced layers with shared weight storage.
- :mod:`repro.models` — Static / Dynamic / Fluid DyDNN model definitions.
- :mod:`repro.training` — plain, incremental and nested-incremental trainers.
- :mod:`repro.data` — synthetic MNIST dataset and loaders.
- :mod:`repro.device` — edge-device emulation and latency cost models.
- :mod:`repro.comm` — wire format and TCP / in-process transports.
- :mod:`repro.distributed` — master/worker runtime, partitioning, modes.
- :mod:`repro.runtime` — failure monitoring and adaptation policy.
- :mod:`repro.experiments` — Fig. 2 harness and reporting.
"""

__version__ = "1.0.0"
