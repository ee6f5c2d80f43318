"""The serving import graph: what a serving interpreter must not load.

Every forked worker inherits the parent's modules and the TCP subprocess
worker pays them at cold start, so the dataset generator's dependencies
(scipy, and the ``numpy.testing`` / ``unittest`` it drags in) stay off the
serving path: they load when a transform that needs them is called.

A package ``__init__`` binds nothing but its docstring, so importing one
module loads only what that module imports, not the rest of its package.
Every name has one import path, its defining module.  The exception is
the names ``benchmarks/e2e/workloads.py`` imports from package roots
(:data:`HARNESS_NAMES`).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SERVING_MODULES = (
    "repro.scheduler.frontend",
    "repro.runtime",
    "repro.engine",
    "repro.distributed.worker_main",
    "repro.cli",
)
UNWANTED = ("scipy", "numpy.testing", "numpy.f2py", "unittest")

#: Off the serving path: the dataset generator, training, the simulator and
#: scenario zoo, the device-plane controller, the TCP cluster, the model zoo.
OFF_SERVING_PATH = (
    "repro.data.glyphs",
    "repro.data.loader",
    "repro.data.synth_mnist",
    "repro.data.transforms",
    "repro.nn.loss",
    "repro.nn.checkpoint",
    "repro.nn.optim",
    "repro.nn.optim.sgd",
    "repro.training.recipes",
    "repro.training.revival",
    "repro.training.trainer",
    "repro.trace.replay",
    "repro.trace.scenarios",
    "repro.runtime.controller",
    "repro.distributed.cluster",
    "repro.distributed.layer_partition",
    "repro.models.zoo",
    "repro.models.static_dnn",
    "repro.models.dynamic_dnn",
)

#: Package -> the names the e2e harness imports from its root.
HARNESS_NAMES = {
    "repro.comm": {"CommLatencyModel", "InProcChannel", "cast_for_wire"},
    "repro.device": {"EmulatedDevice", "jetson_nx_master", "jetson_nx_worker"},
    "repro.distributed": {
        "MASTER", "WORKER", "ExecutionMode", "MasterRuntime", "SystemThroughputModel",
        "WorkerServer",
    },
    "repro.models": {"FluidDyDNN"},
    "repro.runtime": {"AdaptationPolicy", "LiveSystem"},
    "repro.slimmable": {"SlimmableConvNet", "paper_width_spec"},
    "repro.utils": {"make_rng"},
}
HARNESS = ROOT / "benchmarks" / "e2e" / "workloads.py"

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

FRONTEND_PROBE = f"""
import sys
import repro.scheduler.frontend
loaded = [m for m in {OFF_SERVING_PATH!r} if m in sys.modules]
assert not loaded, f"import repro.scheduler.frontend loaded {{loaded}}"
"""


def _run(probe: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )


def _packages():
    """Package name -> its ``__init__.py``, over ``src/repro``."""
    return {
        ".".join(init.parent.relative_to(SRC).parts): init
        for init in sorted((SRC / "repro").rglob("__init__.py"))
    }


def _is_submodule(package: str, name: str) -> bool:
    directory = SRC.joinpath(*package.split("."))
    return (directory / f"{name}.py").exists() or (directory / name / "__init__.py").exists()


def test_serving_imports_leave_the_dataset_dependencies_unloaded():
    result = _run(PROBE)
    assert result.returncode == 0, result.stderr


def test_the_frontend_import_leaves_the_rest_of_its_packages_unloaded():
    result = _run(FRONTEND_PROBE)
    assert result.returncode == 0, result.stderr


def test_package_inits_bind_only_their_docstring_and_the_harness_names():
    extra = []
    for package, init in _packages().items():
        allowed = set(HARNESS_NAMES.get(package, ()))
        if package == "repro":
            allowed.add("__version__")
        body = ast.parse(init.read_text()).body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        for node in body:
            if isinstance(node, ast.ImportFrom):
                bound = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Assign):
                bound = [t.id if isinstance(t, ast.Name) else ast.dump(t) for t in node.targets]
            else:
                bound = [type(node).__name__]
            extra += [f"{package}: {name}" for name in bound if name not in allowed]
    assert not extra, "package __init__s bind more than the harness names:\n  " + "\n  ".join(extra)


def test_names_are_imported_from_their_defining_module():
    packages = _packages()
    offenders = []
    for directory in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path == HARNESS:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.module in packages):
                    continue
                for alias in node.names:
                    if not _is_submodule(node.module, alias.name):
                        where = path.relative_to(ROOT)
                        offenders.append(f"{where}:{node.lineno}: {node.module}.{alias.name}")
    assert not offenders, (
        "import these from their defining module, not the package root:\n  "
        + "\n  ".join(offenders)
    )


def test_the_harness_names_are_what_the_harness_imports_from_package_roots():
    packages = _packages()
    imported = {}
    for node in ast.walk(ast.parse(HARNESS.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in packages:
            names = {a.name for a in node.names if not _is_submodule(node.module, a.name)}
            if names:
                imported.setdefault(node.module, set()).update(names)
    assert imported == HARNESS_NAMES
