"""No code without a caller: every public name in ``src/repro`` is used.

The census parses ``src/repro`` with :mod:`ast` and collects every public
module-level class and function and every public method (a ``def`` directly
in a class body).  A name counts as used when a ``Name``, an ``Attribute``
or an import refers to it anywhere in ``src/repro``, ``benchmarks/`` or
``examples/``.  References inside the name's own ``def`` and the re-exports
of a package ``__init__`` do not count, and neither does anything under
``tests/``: code that only its own tests reach is not part of the program.

Names match by their last component (any ``.run`` reaches every method
called ``run``), so the census under-reports dead code and never flags live
code.  A name only tests reach either goes, together with the tests that
check only it, or is listed in :data:`EXEMPT` with the reason a test of
*other* code needs it.
"""

import ast
import functools
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: (qualified names, reason) — each reason is one of: oracle (a test of other
#: code checks against it), harness (a test of other code drives or reads
#: through it), reader (reads a committed artifact), item 6 / item 7 (a
#: ROADMAP item that names it).
EXEMPT: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("repro.distributed.partitioned.partitioned_forward_reference",),
     "oracle: the engine's HA path and the cost model's exchange bytes are checked against it"),
    (("repro.trace.recorder.canonical_dumps",),
     "oracle: replay determinism tests compare runs through it"),
    (("repro.nn.functional.shifted_gemm_tolerance",),
     "oracle: the plan's shifted-gemm outputs are checked within it"),
    (("repro.nn.module.Module.num_parameters",),
     "oracle: subnet_param_count is checked against it"),
    (("repro.nn.functional.conv2d_shifted",),
     "harness: test_conv_backends checks the plan's shifted-GEMM kernel against conv2d_forward through it"),
    (("repro.faults.plan.single_fault",),
     "harness: the device, monitor, controller and integration tests script their failure with it"),
    (("repro.tuning.space.SearchSpace.small",),
     "harness: the tuner tests search this space"),
    (("repro.nn.parameter.Parameter.copy_",),
     "harness: the plan tests bump a weight's version through it"),
    (("repro.runtime.live.LiveSystem.serve_stream",
      "repro.runtime.live.LiveLog.modes",
      "repro.runtime.live.LiveLog.failover_points",
      "repro.runtime.live.LiveLog.served_count"),
     "harness: the live failover tests serve a stream and read its log"),
    (("repro.runtime.controller.Timeline.modes",),
     "harness: the controller tests read a simulated timeline's modes"),
    (("repro.distributed.master.MasterRuntime.crash_worker",),
     "harness: failover tests kill the worker through it"),
    (("repro.comm.latency_model.CommLatencyModel.scaled_latency",),
     "harness: the throughput property tests scale the link with it"),
    (("repro.models.base.ModelFamily.is_combined_certified",),
     "harness: the policy property test checks every HA plan's combined model with it"),
    (("repro.tuning.artifact.read_tuned_config",
      "repro.tuning.artifact.load_scheduler_config"),
     "reader: they read the committed tuning artifact"),
    (("repro.training.history.History.final_loss",
      "repro.training.history.History.best_val_accuracy",
      "repro.training.history.History.to_dicts"),
     "item 6: the paper record's per-stage training series reads them"),
    (("repro.distributed.multidevice.MultiDeviceRuntime.serve",),
     "item 7: the distributed facades go together, after item 11"),
)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def public_definitions() -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every public class, function and method."""
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


class _References(ast.NodeVisitor):
    """Counts references by bare name, skipping a name's own body."""

    def __init__(self, counts: Counter, reexports_count: bool) -> None:
        self.counts = counts
        self.reexports_count = reexports_count
        self.enclosing: List[str] = []

    def _scope(self, node) -> None:
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _use(self, name: str) -> None:
        if name not in self.enclosing:
            self.counts[name] += 1

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.reexports_count:
            for alias in node.names:
                self._use(alias.name)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._use(alias.name.rsplit(".", 1)[-1])


def reference_counts() -> Counter:
    counts: Counter = Counter()
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            reexport = directory == SRC and path.name == "__init__.py"
            _References(counts, reexports_count=not reexport).visit(_parse(path))
    return counts


@functools.lru_cache(maxsize=None)
def callerless() -> Dict[str, str]:
    """Qualified name → bare name of every public definition nothing calls."""
    counts = reference_counts()
    return {qual: bare for qual, bare in public_definitions() if not counts[bare]}


def test_every_public_name_has_a_caller_outside_tests():
    exempt = {name for names, _ in EXEMPT for name in names}
    orphans = sorted(set(callerless()) - exempt)
    assert not orphans, (
        "only tests reach these; remove them with the tests that check only "
        "them, or exempt them with a reason:\n  " + "\n  ".join(orphans)
    )


def test_exemptions_are_live_and_still_needed():
    """An exemption names a definition that exists and still has no caller."""
    defined = {qual for qual, _ in public_definitions()}
    orphans = callerless()
    for names, reason in EXEMPT:
        assert reason.split(":")[0] in {"oracle", "harness", "reader", "item 6", "item 7"}, reason
        for name in names:
            assert name in defined, f"exempted {name} is not defined"
            assert name in orphans, f"exempted {name} has a caller now; drop its exemption"
