"""Model families: Static DNN, Dynamic DNN and Fluid DyDNN (paper Fig. 1a)."""

# benchmarks/e2e/workloads.py imports these names from the package root.
from repro.models.fluid_dydnn import FluidDyDNN
