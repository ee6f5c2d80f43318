"""Width-slimmable layers and sub-network machinery.

The mechanism behind all three model families in the paper: full-width
weights stored once, sub-networks expressed as channel slices
(:class:`SubNetSpec`), trained with per-region freeze masks
(:class:`RegionTracker`).
"""

# benchmarks/e2e/workloads.py imports these names from the package root.
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
