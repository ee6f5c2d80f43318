"""Workspace arenas: preallocated scratch buffers for compiled plans.

A compiled :class:`~repro.nn.plan.InferencePlan` knows every intermediate
shape its forward pass will produce, so the per-request im2col columns,
GEMM outputs, activations and logits can live in memory allocated once
and reused forever.  A :class:`Workspace` is one such buffer set; a
:class:`WorkspacePool` hands workspaces out to concurrent serving threads
so K in-flight requests never share scratch memory *and* never allocate:
each thread checks a workspace out, runs the plan into it, and checks it
back in.

A pass is a chain — columns feed a GEMM, the GEMM feeds a copy, the copy
feeds a pool — so most of its buffers are dead most of the time.  Each
:class:`BufferSpec` therefore declares how long it ``live``\\ s, in the
kernel steps of its program, and a workspace is **two allocations**:

* a *persistent* region, cleared once, holding every buffer that lives for
  the whole run (no ``live``, or ``zeroed``: padded input arenas whose
  borders must stay zero across requests, the logits a caller still reads
  after the pass) — each on bytes of its own;
* an *uninitialised scratch* region in which :func:`buffer_layout` places
  the transients so that two buffers share bytes only if their lifetimes
  are disjoint.  Its size is the pass's peak co-live bytes, not the sum.

The layout is a pure function of the buffer list and is memoised, so
rebuilding an identical plan computes nothing; the named views a workspace
hands out (``ws[name]``) are what they always were.

The pool grows on demand — a new concurrency high-water mark allocates
one more workspace — and then reaches a steady state where
:meth:`WorkspacePool.checkout` is a lock-protected list pop.
``created``/``checkouts`` counters make the "no steady-state allocations"
property assertable in tests.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

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


class Workspace:
    """One thread's scratch buffer set, allocated once from buffer specs."""

    def __init__(self, specs: Sequence[BufferSpec]) -> None:
        layout = buffer_layout(tuple(specs))
        self.persistent = np.zeros(layout.persistent_nbytes, dtype=np.uint8)
        # Never cleared: glibc would memset the whole region on every build
        # once it recycles the chunk, and no transient is read before written.
        self.scratch = np.empty(layout.scratch_nbytes, dtype=np.uint8)
        self._buffers: Dict[str, np.ndarray] = {
            name: np.ndarray(
                shape, dtype, self.scratch if in_scratch else self.persistent, offset
            )
            for name, in_scratch, offset, shape, dtype in layout.slots
        }

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
    """Thread-safe checkout pool of identical workspaces for one plan."""

    def __init__(self, specs: Sequence[BufferSpec], *, prealloc: int = 1) -> None:
        if prealloc < 0:
            raise ValueError("prealloc must be non-negative")
        self.specs: Tuple[BufferSpec, ...] = tuple(specs)
        self._lock = threading.Lock()
        self._free = [Workspace(self.specs) for _ in range(prealloc)]
        self.created = len(self._free)   # workspaces ever allocated
        self.checkouts = 0               # successful acquires (steady-state: no allocs)

    def acquire(self) -> Workspace:
        """Pop a free workspace, allocating one only at a new concurrency peak."""
        with self._lock:
            self.checkouts += 1
            if self._free:
                return self._free.pop()
            self.created += 1
        return Workspace(self.specs)

    def release(self, workspace: Workspace) -> None:
        with self._lock:
            self._free.append(workspace)

    @property
    def workspace_nbytes(self) -> int:
        """Bytes one workspace occupies (each checkout costs this much)."""
        return buffer_layout(self.specs).nbytes

    @contextmanager
    def checkout(self) -> Iterator[Workspace]:
        ws = self.acquire()
        try:
            yield ws
        finally:
            self.release(ws)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"WorkspacePool(created={self.created}, free={len(self._free)}, "
                f"checkouts={self.checkouts})"
            )
