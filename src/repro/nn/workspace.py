"""Workspace arenas: preallocated scratch buffers for compiled plans.

A compiled :class:`~repro.nn.plan.InferencePlan` knows every intermediate
shape its forward pass will produce, so the per-request im2col columns,
GEMM outputs, activations and logits can live in memory allocated once
and reused forever.  A :class:`Workspace` is one plan's named views of
such memory; a :class:`WorkspacePool` hands workspaces out to concurrent
serving threads so K in-flight requests never share scratch memory *and*
never allocate: each thread checks a workspace out, runs the plan into
it, and checks it back in.

A pass is a chain — columns feed a GEMM, the GEMM feeds a copy, the copy
feeds a pool — so most of its buffers are dead most of the time.  Each
:class:`BufferSpec` therefore declares how long it ``live``\\ s, in the
kernel steps of its program, and an *arena set* is **two allocations**:

* a *persistent* region, cleared once, holding every buffer that lives for
  the whole run (no ``live``, or ``zeroed``: padded input arenas whose
  borders must stay zero across requests, the logits a caller still reads
  after the pass) — each on bytes of its own;
* an *uninitialised scratch* region in which :func:`buffer_layout` places
  the transients so that two buffers share bytes only if their lifetimes
  are disjoint.  Its size is the pass's peak co-live bytes, not the sum.

One arena set serves one run at a time, of any layout in its pool: the
plans of the nested widths of one network share one pool whose sets are
sized to the widest (:func:`buffer_layouts`), and each width reads a set
through its own named views, built the first time it runs there and kept.
Every padded input arena keeps one base offset in every width's layout,
and a cell of an NCHW buffer is border or interior by its offset modulo
the plane alone, so no width ever writes another width's zero border.

Layouts are pure functions of the buffer lists and are memoised, so
rebuilding an identical plan or set computes no placement; the
named views a workspace hands out (``ws[name]``) are what they always were.
A pool places its set when it is built, so a pool built with no arena set
(a process-backend frontend's, before it forks its workers) hands every
forked worker a placement it need not compute again.

The pool grows on demand — a new concurrency high-water mark allocates
one more arena set — and then reaches a steady state where
:meth:`WorkspacePool.acquire` is a lock-protected list pop.
``created``/``checkouts`` counters make the "no steady-state allocations"
property assertable in tests.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

_ALIGN = 64  # every buffer starts on a cache line of its region


@dataclass(frozen=True)
class BufferSpec:
    """One named arena buffer a plan needs: shape, dtype, zero-init, lifetime.

    ``zeroed`` buffers are cleared at allocation time and their border
    regions are never written afterwards — that is how plans keep conv
    padding zeros alive across requests without a per-call ``np.pad``.

    ``live`` is ``(first, last)``: the inclusive indices, in program order,
    of the first and last kernel step that touches the buffer.  Outside
    that interval its bytes may hold another buffer.  ``None`` means "for
    the whole run" — dedicated bytes — and a ``zeroed`` buffer is always
    treated that way.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str
    zeroed: bool = False
    live: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("buffer needs a name")
        if min(self.shape, default=1) <= 0:
            raise ValueError(f"buffer {self.name!r} has non-positive dims {self.shape}")
        if self.live is not None and not 0 <= self.live[0] <= self.live[1]:
            raise ValueError(f"buffer {self.name!r} has lifetime {self.live}")

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize

    @property
    def persistent(self) -> bool:
        """True when the buffer keeps bytes of its own for the whole run."""
        return self.zeroed or self.live is None


class BufferLayout(NamedTuple):
    """Where each buffer of one spec list sits: see :func:`buffer_layout`."""

    persistent_nbytes: int
    scratch_nbytes: int
    #: ``(name, in_scratch, byte offset, shape, dtype)`` per buffer, spec order.
    slots: Tuple[Tuple[str, bool, int, Tuple[int, ...], np.dtype], ...]

    @property
    def nbytes(self) -> int:
        return self.persistent_nbytes + self.scratch_nbytes


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


@functools.lru_cache(maxsize=1024)
def buffer_layout(specs: Tuple[BufferSpec, ...]) -> BufferLayout:
    """Place ``specs`` in a persistent and a scratch region.

    Persistent buffers are laid end to end.  Transients go first-fit,
    largest first: each takes the lowest aligned scratch offset at which it
    overlaps no already-placed buffer whose lifetime intersects its own.
    Memoised per spec list — a serving process compiles a handful of
    distinct plans, and rebuilds each of them many times.
    """
    offsets: Dict[str, int] = {}
    persistent = 0
    for spec in specs:
        if spec.name in offsets:
            raise ValueError(f"duplicate buffer name {spec.name!r}")
        offsets[spec.name] = persistent  # a transient's is set below
        if spec.persistent:
            persistent += _aligned(spec.nbytes)
    scratch = 0
    placed = []  # (start, stop, first, last) of the transients placed so far
    for spec in sorted((s for s in specs if not s.persistent), key=lambda s: -s.nbytes):
        first, last = spec.live
        size = _aligned(spec.nbytes)
        start = 0
        for lo, hi, f, l in sorted(placed):
            if f <= last and first <= l and lo < start + size and start < hi:
                start = hi
        placed.append((start, start + size, first, last))
        offsets[spec.name] = start
        scratch = max(scratch, start + size)
    return BufferLayout(
        persistent,
        scratch,
        tuple(
            (s.name, not s.persistent, offsets[s.name], s.shape, np.dtype(s.dtype))
            for s in specs
        ),
    )


def _same_border(a: BufferSpec, b: BufferSpec) -> bool:
    """True when ``a`` and ``b`` are zeroed and their borders sit at the same
    offsets: same dtype, and the same dims apart from the channel dim 1.

    An NCHW buffer's cell is border or interior by its offset modulo the
    ``H x W`` plane alone, so two such buffers over the same base bytes
    never write each other's border, whatever their channel counts.
    """
    return (
        a.zeroed
        and b.zeroed
        and np.dtype(a.dtype) == np.dtype(b.dtype)
        and len(a.shape) == len(b.shape)
        and all(x == y for i, (x, y) in enumerate(zip(a.shape, b.shape)) if i != 1)
    )


@functools.lru_cache(maxsize=256)
def buffer_layouts(layouts: Tuple[Tuple[BufferSpec, ...], ...]) -> Tuple[BufferLayout, ...]:
    """Place several spec lists over one persistent and one scratch region.

    Every layout keeps its own transient placement (:func:`buffer_layout`);
    the scratch region is the largest of them.  Each persistent buffer name
    gets one slot, sized to its largest layout and at the same offset in
    every layout, so a padded input arena keeps one base whatever the width
    that runs.  A zeroed buffer must be zeroed with the same dtype and dims
    (the channel dim 1 aside) wherever another layout keeps that name
    persistent: otherwise one layout would write the other's zero border.
    One layout comes back exactly as :func:`buffer_layout` places it.
    Memoised per set, as :func:`buffer_layout` is per list: each serving
    frontend places the same set again.
    """
    own = [buffer_layout(specs) for specs in layouts]
    first: Dict[str, BufferSpec] = {}
    slot: Dict[str, int] = {}  # persistent name -> the largest aligned bytes
    for specs in layouts:
        for spec in specs:
            if not spec.persistent:
                continue
            seen = first.setdefault(spec.name, spec)
            if (seen.zeroed or spec.zeroed) and not _same_border(seen, spec):
                raise ValueError(
                    f"zeroed buffer {spec.name!r} is {seen.shape} {seen.dtype} "
                    f"(zeroed={seen.zeroed}) in one layout and {spec.shape} "
                    f"{spec.dtype} (zeroed={spec.zeroed}) in another"
                )
            slot[spec.name] = max(slot.get(spec.name, 0), _aligned(spec.nbytes))
    offsets: Dict[str, int] = {}
    persistent = 0
    for name, nbytes in slot.items():
        offsets[name] = persistent
        persistent += nbytes
    scratch = max(layout.scratch_nbytes for layout in own)
    return tuple(
        BufferLayout(
            persistent,
            scratch,
            tuple(
                (name, in_scratch, offset if in_scratch else offsets[name], shape, dtype)
                for name, in_scratch, offset, shape, dtype in layout.slots
            ),
        )
        for layout in own
    )


class _ArenaSet(NamedTuple):
    """One concurrent run's two regions, and each layout's views over them."""

    persistent: np.ndarray
    scratch: np.ndarray
    #: layout index (in the pool's ``layouts``) -> that layout's workspace
    views: Dict[int, "Workspace"]


class Workspace:
    """One layout's named views over an arena set's two regions.

    A :class:`WorkspacePool` builds one per (arena set, layout) the first
    time that layout runs in that set, and keeps it.  ``programs`` is what
    the plan reading the layout binds over these views and keeps: row
    count -> that batch size's bound conv programs.
    """

    def __init__(self, layout: BufferLayout, arenas: _ArenaSet) -> None:
        self._arenas = arenas
        self.persistent, self.scratch = arenas.persistent, arenas.scratch
        self._buffers: Dict[str, np.ndarray] = {
            name: np.ndarray(
                shape, dtype, self.scratch if in_scratch else self.persistent, offset
            )
            for name, in_scratch, offset, shape, dtype in layout.slots
        }
        self.programs: Dict[int, object] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    @property
    def nbytes(self) -> int:
        return self.persistent.nbytes + self.scratch.nbytes

    def __repr__(self) -> str:
        return f"Workspace({len(self._buffers)} buffers, {self.nbytes} bytes)"


class WorkspacePool:
    """Thread-safe checkout pool of arena sets shared by one or more layouts.

    ``WorkspacePool(*layouts)`` owns the arena sets, each sized by
    :func:`buffer_layouts` to the largest layout, and checks them out
    through ``layouts[0]``'s views.  :meth:`for_layout` hands another
    layout a pool of its own over the same arena sets: concurrent runs of
    different layouts take different sets, and a run of any layout takes
    a free one, so the set count follows the concurrency peak alone.

    ``created`` counts, on the owning pool (``shared``), the arena sets
    ever allocated; on a :meth:`for_layout` pool, the workspaces it built,
    one per arena set that layout has run in.
    """

    def __init__(self, *layouts: Sequence[BufferSpec], prealloc: int = 1) -> None:
        if not layouts:
            raise ValueError("a pool needs at least one buffer layout")
        if prealloc < 0:
            raise ValueError("prealloc must be non-negative")
        self.layouts: Tuple[Tuple[BufferSpec, ...], ...] = tuple(map(tuple, layouts))
        self.specs = self.layouts[0]  # the layout this pool's checkouts read
        self.shared = self            # the pool that owns the arena sets
        self._index = 0
        self._lock = threading.Lock()
        # Placed here, not at the first checkout: a pool built with no arena
        # set before a fork leaves every forked worker its placement.
        self._placed = buffer_layouts(self.layouts)
        self._free = [self._allocate() for _ in range(prealloc)]
        self.created = len(self._free)
        self.checkouts = 0  # successful acquires (steady-state: no allocs)

    def for_layout(self, index: int) -> "WorkspacePool":
        """A pool checking this one's arena sets out through ``layouts[index]``."""
        pool = WorkspacePool.__new__(WorkspacePool)
        pool.layouts, pool.specs = self.layouts, self.layouts[index]
        pool.shared, pool._index = self.shared, index
        pool.created = pool.checkouts = 0
        return pool

    def _allocate(self) -> _ArenaSet:
        """A fresh arena set: a cleared persistent and an uninitialised scratch region."""
        size = self._placed[0]
        # Scratch is never cleared: glibc would memset the whole region on every
        # build once it recycles the chunk, and no transient is read before written.
        return _ArenaSet(
            np.zeros(size.persistent_nbytes, dtype=np.uint8),
            np.empty(size.scratch_nbytes, dtype=np.uint8),
            {},
        )

    def acquire(self) -> Workspace:
        """Pop a free arena set, allocating one only at a new concurrency peak."""
        shared = self.shared
        with shared._lock:
            self.checkouts += 1
            arenas = shared._free.pop() if shared._free else None
            if arenas is None:
                shared.created += 1
        if arenas is None:
            arenas = shared._allocate()
        workspace = arenas.views.get(self._index)
        if workspace is None:  # this layout's first run in this set
            layout = shared._placed[self._index]
            workspace = arenas.views[self._index] = Workspace(layout, arenas)
            if self is not shared:
                with shared._lock:
                    self.created += 1
        return workspace

    def release(self, workspace: Workspace) -> None:
        with self.shared._lock:
            self.shared._free.append(workspace._arenas)

    @property
    def workspace_nbytes(self) -> int:
        """Bytes one arena set occupies (each concurrent checkout costs this much)."""
        return self.shared._placed[0].nbytes

    def __repr__(self) -> str:
        shared = self.shared
        with shared._lock:
            return (
                f"WorkspacePool(layouts={len(self.layouts)}, arena_sets={shared.created}, "
                f"free={len(shared._free)}, checkouts={self.checkouts})"
            )
