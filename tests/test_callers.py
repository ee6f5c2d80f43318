"""No code without a caller: every public name and parameter in ``src/repro`` is used.

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

The same rule holds for parameters.  A defaulted parameter of a public
function, method or constructor is used when a call in ``src/repro``,
``benchmarks/`` or ``examples/`` passes it, by keyword or by position (a
``*`` or ``**`` argument passes everything it could).  Calls match by the
callee's last name component; a constructor is reached through its class,
through a subclass without its own ``__init__``, through ``cls(...)`` in a
class's body and through ``super().__init__``; a function, method or class
that is handed around as a value (a callback, a dispatch table) counts as
passed everything, as if called with ``**`` (a type test such as
``isinstance`` hands nothing over).  A *frozen* dataclass's defaulted
fields are its constructor's parameters; a mutable dataclass is state, not
knobs.  A parameter only tests pass becomes a constant in its body, or is
listed in :data:`PARAM_EXEMPT`.
"""

import ast
import functools
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: (qualified names, reason) — each reason is one of: oracle (a test of other
#: code checks against it), harness (a test of other code drives or reads
#: through it), reader (reads a committed artifact), item 6 (a ROADMAP item
#: that names it).
EXEMPT: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("repro.engine.partitioned.partitioned_forward_reference",),
     "oracle: the engine's HA path and the cost model's exchange bytes are checked against it"),
    (("repro.trace.recorder.canonical_dumps",),
     "oracle: replay determinism tests compare runs through it"),
    (("repro.nn.module.Module.num_parameters",),
     "oracle: subnet_param_count is checked against it"),
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
        assert reason.split(":")[0] in {"oracle", "harness", "reader", "item 6"}, reason
        for name in names:
            assert name in defined, f"exempted {name} is not defined"
            assert name in orphans, f"exempted {name} has a caller now; drop its exemption"


# -- parameters ---------------------------------------------------------------

#: (qualified parameters, reason) — each reason is one of: seam (a
#: ``clock=`` a test substitutes, which ROADMAP item 3 will bind), harness (a
#: named test needs a second value), entry point (``main(argv)``), item 6 (the
#: ROADMAP item that names it).
PARAM_EXEMPT: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("repro.cli.main(argv)", "repro.distributed.worker_main.main(argv)"),
     "entry point: tests run the command lines in-process"),
    (("repro.faults.injector.FaultInjector(clock)",
      "repro.faults.supervisor.ReplicaSupervisor(clock)"),
     "seam: test_injector and test_supervisor run them on a fake clock"),
    (("repro.device.emulated.EmulatedDevice(crash_counter)",),
     "harness: test_live's failover tests and test_protocol crash a worker mid-stream with it"),
    (("repro.faults.plan.single_fault(at_s)",),
     "harness: the device, monitor, controller and scenario tests script their failure time with it"),
    (("repro.slimmable.slim_net.SlimmableConvNet(image_size)",),
     "harness: test_slim_net gradient-checks every sub-network end to end on 8x8 inputs through it"),
    (("repro.nn.layers.pooling.MaxPool2d(stride)",),
     "harness: test_layers checks F.maxpool2d_forward/backward on overlapping windows through it"),
    (("repro.slimmable.sliced_conv.SlicedConv2d(stride)",),
     "harness: test_sliced_layers gradient-checks F.conv2d_forward/backward on strided geometries through it"),
    (("repro.runtime.batching.MicroBatchQueue(autostart)",),
     "harness: test_batching queues requests before the collector starts, so batch composition is deterministic"),
    (("repro.tuning.tuner.tune(space)", "repro.tuning.tuner.tune(validate)"),
     "harness: test_tuner searches SearchSpace.small() without the zoo re-rank (0.2 s a search, 2.6 s on the defaults)"),
    (("repro.training.history.History.final_loss(stage)",
      "repro.training.recipes.train_family(val_set)"),
     "item 6: the per-stage training series (loss, validation accuracy)"),
)


class _Callable:
    """One public function, method or constructor and its defaulted parameters."""

    def __init__(self, qual: str, bare: str, defaulted: Dict[str, Optional[int]]) -> None:
        self.qual, self.bare = qual, bare
        #: name -> positional index a caller fills it at (None: keyword-only)
        self.defaulted = defaulted

    @classmethod
    def of_def(cls, qual: str, bare: str, node: ast.FunctionDef, bound: bool) -> "_Callable":
        args = node.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        shift = 1 if bound else 0
        defaulted: Dict[str, Optional[int]] = {
            arg.arg: i - shift for i, arg in enumerate(positional) if i >= first_default
        }
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaulted[arg.arg] = None
        return cls(qual, bare, defaulted)


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        if isinstance(d, ast.Call) and (
            getattr(d.func, "id", None) == "dataclass" or getattr(d.func, "attr", None) == "dataclass"
        ):
            return any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in d.keywords
            )
    return False


def dataclass_fields(node: ast.ClassDef) -> Dict[str, Optional[int]]:
    """A frozen dataclass's defaulted fields: ``__init__`` parameters by
    position.  ``ClassVar``s and ``field(init=False)`` are not parameters."""
    defaulted: Dict[str, Optional[int]] = {}
    position = 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        is_field = isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
        keywords = {k.arg: k.value for k in value.keywords} if is_field else {}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        if value is not None and (not is_field or {"default", "default_factory"} & set(keywords)):
            defaulted[item.target.id] = position
        position += 1
    return defaulted


def _is_bound(node: ast.FunctionDef) -> bool:
    return not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    )


def _bases(node: ast.ClassDef) -> Tuple[str, ...]:
    return tuple(
        b.id if isinstance(b, ast.Name) else b.attr
        for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))
    )


@functools.lru_cache(maxsize=None)
def _classes() -> Dict[str, Tuple[Tuple[str, ...], bool]]:
    """Bare class name -> (bare base names, defines ``__init__``), over ``src/repro``."""
    out: Dict[str, Tuple[Tuple[str, ...], bool]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                has_init = any(
                    isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for item in node.body
                )
                out[node.name] = (_bases(node), has_init)
    return out


def public_callables() -> Iterator[_Callable]:
    """Every public function, method and constructor with a defaulted
    parameter; a frozen dataclass's defaulted fields are its constructor's.
    (A mutable dataclass is state, not a bundle of knobs.)"""
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield _Callable.of_def(f"{module}.{node.name}", node.name, node, bound=False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                qual = f"{module}.{node.name}"
                if _is_frozen_dataclass(node) and not _classes()[node.name][1]:
                    yield _Callable(qual, node.name, dataclass_fields(node))
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        yield _Callable.of_def(qual, node.name, item, bound=True)
                    elif not item.name.startswith("_"):
                        yield _Callable.of_def(
                            f"{qual}.{item.name}", item.name, item, _is_bound(item)
                        )


class _Calls(ast.NodeVisitor):
    """Collects every call by callee bare name, and the names handed over as
    values: a call's argument, a dict's value, a list, tuple or set element."""

    def __init__(self) -> None:
        self.calls: Dict[str, List[ast.Call]] = {}
        self.values: Set[str] = set()
        self.enclosing_class: List[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.enclosing_class.append(node)
        self.generic_visit(node)
        self.enclosing_class.pop()

    def visit_FunctionDef(self, node) -> None:
        # Annotations name types, they do not hand callables around.
        for child in node.body + node.decorator_list + node.args.defaults:
            self.visit(child)
        for default in node.args.kw_defaults:
            if default is not None:
                self.visit(default)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def _callees(self, func: ast.expr) -> List[str]:
        here = self.enclosing_class[-1] if self.enclosing_class else None
        if isinstance(func, ast.Name):
            return [here.name] if func.id == "cls" and here else [func.id]
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                func.attr == "__init__" and here
                and isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name) and receiver.func.id == "super"
            ):
                return list(_bases(here))
            return [func.attr]
        if isinstance(func, ast.Call) and isinstance(func.func, ast.Name) and func.func.id == "type":
            return [here.name] if here else []
        return []

    def _handed(self, nodes) -> None:
        for node in nodes:
            if isinstance(node, ast.Name):
                self.values.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.values.add(node.attr)

    def visit_Call(self, node: ast.Call) -> None:
        callees = self._callees(node.func)
        for name in callees:
            self.calls.setdefault(name, []).append(node)
        if callees == ["isinstance"] or callees == ["issubclass"]:
            # A type test hands the class to nobody who could construct it.
            self.visit(node.args[0])
            return
        self._handed(node.args + [k.value for k in node.keywords])
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._handed(node.values)
        self.generic_visit(node)

    def visit_List(self, node) -> None:
        self._handed(node.elts)
        self.generic_visit(node)

    visit_Tuple = visit_Set = visit_List


@functools.lru_cache(maxsize=None)
def _call_index() -> _Calls:
    calls = _Calls()
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            calls.visit(_parse(path))
    return calls


def _constructor_names(cls: str, classes: Dict[str, Tuple[Tuple[str, ...], bool]]) -> Set[str]:
    """``cls`` and every subclass in ``classes`` that inherits its ``__init__``."""
    names, grew = {cls}, True
    while grew:
        grew = False
        for name, (bases, has_init) in classes.items():
            if name not in names and not has_init and names.intersection(bases):
                names.add(name)
                grew = True
    return names


def _passes(call: ast.Call, name: str, index: Optional[int]) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


@functools.lru_cache(maxsize=None)
def unpassed_parameters() -> Tuple[str, ...]:
    """``qualified(param)`` of every defaulted parameter no caller passes."""
    index = _call_index()
    classes = _classes()
    out = []
    for callable_ in public_callables():
        is_class = callable_.qual.rsplit(".", 1)[-1] == callable_.bare and callable_.bare in classes
        if callable_.bare in index.values:
            continue  # handed around as a value: whoever calls it may pass anything
        callees = _constructor_names(callable_.bare, classes) if is_class else {callable_.bare}
        calls = [c for name in callees for c in index.calls.get(name, [])]
        for param, position in callable_.defaulted.items():
            if not any(_passes(c, param, position) for c in calls):
                out.append(f"{callable_.qual}({param})")
    return tuple(out)


def test_every_defaulted_parameter_has_a_caller_outside_tests():
    exempt = {name for names, _ in PARAM_EXEMPT for name in names}
    unpassed = sorted(set(unpassed_parameters()) - exempt)
    assert not unpassed, (
        "only tests pass these; make each default a constant in its body, or "
        "exempt it with a reason:\n  " + "\n  ".join(unpassed)
    )


def test_parameter_exemptions_are_live_and_still_needed():
    """An exemption names a defaulted parameter that still has no caller."""
    defined = {
        f"{c.qual}({param})" for c in public_callables() for param in c.defaulted
    }
    unpassed = set(unpassed_parameters())
    for names, reason in PARAM_EXEMPT:
        assert reason.split(":")[0] in {"seam", "harness", "entry point", "item 6"}, reason
        for name in names:
            assert name in defined, f"exempted {name} is not a defaulted parameter"
            assert name in unpassed, f"exempted {name} has a caller now; drop its exemption"


class TestParameterCensus:
    """The census itself: what counts as passing a parameter."""

    @staticmethod
    def calls(source: str) -> _Calls:
        calls = _Calls()
        calls.visit(ast.parse(source))
        return calls

    def test_keyword_position_and_splats_pass(self):
        (call,) = self.calls("f(1, 2, key=3)").calls["f"]
        assert _passes(call, "key", None) and _passes(call, "b", 1)
        assert not _passes(call, "c", 2) and not _passes(call, "other", None)
        (starred,) = self.calls("f(*args)").calls["f"]
        (splat,) = self.calls("f(1, **kw)").calls["f"]
        assert _passes(starred, "c", 2) and _passes(splat, "anything", None)

    def test_cls_super_init_and_type_self_reach_the_class(self):
        calls = self.calls(
            "class Child(pkg.Base):\n"
            "    def __init__(self):\n"
            "        super().__init__(plans=1)\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls(2)\n"
            "    def copy(self):\n"
            "        return type(self)(3)\n"
        ).calls
        assert [k.arg for k in calls["Base"][0].keywords] == ["plans"]
        assert len(calls["Child"]) == 2

    def test_a_subclass_without_init_reaches_its_base_constructor(self):
        classes = {"Base": ((), True), "Plain": (("Base",), False), "Own": (("Base",), True),
                   "Deeper": (("Plain",), False)}
        assert _constructor_names("Base", classes) == {"Base", "Plain", "Deeper"}

    def test_a_frozen_dataclass_field_is_a_parameter_and_a_class_value_passes_all(self):
        (frozen, mutable) = ast.parse(
            "@dataclass(frozen=True)\n"
            "class Knobs:\n"
            "    name: str\n"
            "    rate: float = 1.0\n"
            "    limit: ClassVar[int] = 3\n"
            "    cache: dict = field(init=False, default_factory=dict)\n"
            "    tags: tuple = field(default_factory=tuple)\n"
            "@dataclass\n"
            "class State:\n"
            "    count: int = 0\n"
        ).body
        assert _is_frozen_dataclass(frozen) and not _is_frozen_dataclass(mutable)
        assert dataclass_fields(frozen) == {"rate": 1, "tags": 2}
        calls = self.calls(
            "TABLE = {'knobs': Knobs}\n"
            "if isinstance(x, State):\n"
            "    pass\n"
        )
        assert "Knobs" in calls.values and "State" not in calls.values

    def test_a_callable_handed_over_is_a_value_but_an_annotation_is_not(self):
        calls = self.calls(
            "def g(x: Hint) -> Other:\n"
            "    Thread(target=obj.method)\n"
            "    table = {'a': fn}\n"
            "    if args.flag:\n"
            "        pass\n"
        )
        assert {"method", "fn"} <= calls.values
        assert not {"Hint", "Other", "flag"} & calls.values
