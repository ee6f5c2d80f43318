"""The serving import graph: what a serving interpreter must not load.

Every forked worker inherits the parent's modules and the TCP subprocess
worker pays them at cold start, so the dataset generator's dependencies
(scipy, and the ``numpy.testing`` / ``unittest`` it drags in) stay off the
serving path: they load when a transform that needs them is called.
"""

import os
import subprocess
import sys

import repro

SERVING_MODULES = (
    "repro.scheduler.frontend",
    "repro.runtime",
    "repro.engine",
    "repro.distributed.worker_main",
    "repro.cli",
)
UNWANTED = ("scipy", "numpy.testing", "numpy.f2py", "unittest")

PROBE = f"""
import importlib, sys
for name in {SERVING_MODULES!r}:
    importlib.import_module(name)
loaded = [m for m in {UNWANTED!r} if m in sys.modules]
assert not loaded, f"serving imports loaded {{loaded}}"

import numpy as np
from repro.data.transforms import default_augmentation
image = default_augmentation()(np.full((28, 28), 0.5), np.random.default_rng(0))
assert image.shape == (28, 28)
assert "scipy.ndimage" in sys.modules, "the transforms no longer reach scipy"
"""


def test_serving_imports_leave_the_dataset_dependencies_unloaded():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
