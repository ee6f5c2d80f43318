"""Shared-memory arenas: one copy of the weights for N worker processes.

Thread-backed serving (:class:`~repro.engine.session.InferenceSession`,
:class:`~repro.scheduler.pool.ReplicaPool`) shares parameters by aliasing
numpy storage inside one interpreter — which means all compute fights over
one GIL.  This module is the cross-*process* analogue: parameter storage
moves into ``multiprocessing.shared_memory`` segments, so forked worker
processes map the **same physical pages** (zero weight copies, N
interpreters, N GILs) while the parent keeps mutating the very arrays its
optimizers always held.  Workers only ever ``fork``: they inherit every
mapping, so no process attaches to a segment by name (there is no
spawn-mode path).

Three building blocks:

* :class:`ShmArena` — a bump allocator over one shared-memory segment;
  ``alloc`` hands out ndarray views backed by the segment.
* :class:`SharedParameterStore` — :meth:`SharedParameterStore.share` walks
  a module's parameters, moves every ``Parameter.data`` into one arena and
  backs every ``Parameter.version`` counter by an ``int64`` slot in the
  same segment.  The version table is the **cross-process invalidation
  signal**: a worker's :class:`~repro.nn.plan.PackedWeightCache` reads
  ``Parameter.version`` straight from shared memory, so a parent-side
  optimizer step invalidates every worker's packed blocks with no message.
  Only the creating process may write (bump versions / update weights);
  workers are readers — the single-writer rule is what makes the unlocked
  version compare safe.
* :class:`ShmRing` — one reusable slot over a segment region used to
  carry request/response rows between frontend and worker without
  pickling: the sender places rows at the region's base, ships
  ``(offset, shape, dtype)`` in a small control message, and the receiver
  maps a view at that offset.  One batch is in flight per ring, so every
  placement reuses the same pages.

Lifecycle: every segment created here registers in a process-local
registry with ``atexit`` + ``SIGTERM`` unlink hooks, so repeated serve
runs and crashed workers never leak ``/dev/shm`` entries.  The hooks are
pid-guarded: a forked worker inheriting them never unlinks segments it
does not own.  A creator killed outright (``SIGKILL``) runs no hook; the
next process to create a segment reaps what it left
(:func:`reap_orphaned_segments`).  Unlinking removes the name only — live mappings (the
parent's parameter arrays) stay valid until the process exits.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
import threading
import uuid
from multiprocessing import shared_memory
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.dtypes import TRANSPORT_DTYPES

#: Prefix of every segment this module creates (``/dev/shm/<prefix>...``).
SEGMENT_PREFIX = "repro-shm-"
#: Sub-prefixes distinguishing weight arenas from per-worker I/O rings in
#: ``/dev/shm`` listings (the zero-copy bench counts weight segments only).
WEIGHT_SEGMENT_TAG = "w"
RING_SEGMENT_TAG = "r"

_ALIGN = 64  # bump-allocator alignment (cache line; also any dtype's itemsize)


def _segment_name(tag: str) -> str:
    return f"{SEGMENT_PREFIX}{tag}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def list_segments(tag: Optional[str] = None) -> List[str]:
    """Names of live ``/dev/shm`` segments created by this module.

    The leak-regression tests count these before/after serve runs.  Falls
    back to the in-process registry on platforms without ``/dev/shm``.
    """
    prefix = SEGMENT_PREFIX + (f"{tag}-" if tag else "")
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        with _registry_lock:
            entries = [name for name, _ in _created_segments]
    return sorted(e for e in entries if e.startswith(prefix))


# -- creation registry + cleanup hooks ----------------------------------------

_registry_lock = threading.Lock()
_created_segments: List[Tuple[str, int]] = []  # (name, creator pid)
_hooks_installed = False
_previous_sigterm = None


def _unlink_quietly(name: str) -> None:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    # On CPython 3.11 attaching registers with the resource tracker and
    # ``unlink`` unregisters — balanced, so no explicit untrack here.
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    try:
        segment.close()
    except BufferError:
        pass  # exported views keep the mapping alive; the name is gone


def unlink_created_segments() -> int:
    """Unlink every segment this process created; returns how many existed.

    Safe to call repeatedly; forked children are no-ops (pid guard).
    """
    pid = os.getpid()
    with _registry_lock:
        mine = [name for name, creator in _created_segments if creator == pid]
        _created_segments[:] = [
            (name, creator) for name, creator in _created_segments if creator != pid
        ]
    removed = 0
    for name in mine:
        before = name in list_segments()
        _unlink_quietly(name)
        removed += int(before)
    return removed


def _creator_alive(name: str) -> bool:
    """Whether the process whose pid ``name`` embeds is still running."""
    try:
        pid = int(name[len(SEGMENT_PREFIX):].split("-")[1])
    except (IndexError, ValueError):
        return True  # not a name this module made: leave it alone
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # alive, owned by another user
    return True


def reap_orphaned_segments() -> int:
    """Unlink every segment whose creator died without its hooks running.

    ``SIGKILL`` (or an OOM kill) skips ``atexit`` and the ``SIGTERM``
    handler, so such a creator's segments outlive it; every name carries
    its creator's pid, so the next creator on the host removes them.
    Segments of live creators are never touched.  Returns how many went.
    """
    orphans = [name for name in list_segments() if not _creator_alive(name)]
    for name in orphans:
        _unlink_quietly(name)
    return len(orphans)


def _sigterm_cleanup(signum, frame):
    unlink_created_segments()
    previous = _previous_sigterm
    if callable(previous):
        previous(signum, frame)
    else:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)


def install_cleanup_hooks() -> None:
    """Idempotently install the atexit + SIGTERM unlink backstops.

    Only effective from the main thread (signal API restriction); callers
    on other threads still get the ``atexit`` hook.  The first call also
    reaps segments that killed creators left behind.
    """
    global _hooks_installed, _previous_sigterm
    with _registry_lock:
        if _hooks_installed:
            return
        _hooks_installed = True
    reap_orphaned_segments()
    atexit.register(unlink_created_segments)
    if threading.current_thread() is threading.main_thread():
        previous = signal.getsignal(signal.SIGTERM)
        if previous is not _sigterm_cleanup:
            _previous_sigterm = previous if previous not in (
                signal.SIG_DFL, signal.SIG_IGN, None
            ) else None
            signal.signal(signal.SIGTERM, _sigterm_cleanup)


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Opt this segment out of the stdlib resource tracker.

    We own segment lifecycle explicitly (registry + hooks); leaving the
    tracker registered would double-unlink and print spurious leak
    warnings at interpreter exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
    except Exception:  # noqa: BLE001 - best-effort across CPython versions
        pass


def create_segment(tag: str, nbytes: int) -> shared_memory.SharedMemory:
    """Create a registered, tracker-opted-out shared-memory segment."""
    if nbytes <= 0:
        raise ValueError("segment size must be positive")
    install_cleanup_hooks()
    segment = shared_memory.SharedMemory(
        create=True, size=nbytes, name=_segment_name(tag)
    )
    _untrack(segment)
    with _registry_lock:
        _created_segments.append((segment.name, os.getpid()))
    return segment


# -- arena --------------------------------------------------------------------


class ShmArena:
    """Bump allocator over one shared-memory segment this process created.

    ``alloc`` returns ndarray views into the segment; :meth:`view` rebuilds
    one from its ``(offset, shape, dtype)``.  Forked workers inherit the
    mapping, so the views alias the same pages on both sides of the fork.
    """

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self.segment = segment
        self._cursor = 0

    @classmethod
    def create(cls, nbytes: int, tag: str = WEIGHT_SEGMENT_TAG) -> "ShmArena":
        return cls(create_segment(tag, nbytes))

    @property
    def name(self) -> str:
        return self.segment.name

    @property
    def nbytes(self) -> int:
        return self.segment.size

    def alloc(self, shape: Sequence[int], dtype) -> Tuple[np.ndarray, int]:
        """Carve out one aligned array; returns ``(view, offset)``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        offset = -(-self._cursor // _ALIGN) * _ALIGN
        if offset + nbytes > self.segment.size:
            raise MemoryError(
                f"arena {self.name} exhausted: need {nbytes} bytes at {offset}, "
                f"segment holds {self.segment.size}"
            )
        self._cursor = offset + nbytes
        return self.view(offset, shape, dtype), offset

    def view(self, offset: int, shape: Sequence[int], dtype) -> np.ndarray:
        """An ndarray over ``segment[offset:]`` with the given shape/dtype."""
        return np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=self.segment.buf, offset=offset)

    def unlink(self) -> None:
        """Remove the segment name; live views stay valid."""
        _unlink_quietly(self.name)

    def __repr__(self) -> str:
        return f"ShmArena({self.name}, {self.nbytes} bytes, cursor={self._cursor})"


# -- shared parameters --------------------------------------------------------


class SharedParameterStore:
    """One module's parameters, storage and version counters in shared memory.

    Created by :meth:`share` in the serving parent **before** workers fork;
    forked workers inherit the mapping (true sharing — the pages are
    ``MAP_SHARED``), so there is exactly **one** weight segment regardless
    of the number of workers — the zero-copy fact the multiproc bench
    measures.  The version table is the arena's first allocation.
    """

    def __init__(self, arena: ShmArena) -> None:
        self.arena = arena

    @classmethod
    def share(cls, module) -> "SharedParameterStore":
        """Move ``module``'s parameter storage + version counters into shm.

        Idempotent per module (repeated calls return the existing store).
        The parameter arrays keep their values, dtypes and shapes — only
        the backing memory changes — so optimizers, packed caches and
        checkpoints keep working unchanged.
        """
        existing = getattr(module, "_shm_parameter_store", None)
        if existing is not None:
            return existing
        params = [param for _, param in module.named_parameters()]
        if not params:
            raise ValueError("module has no parameters to share")
        data_bytes = sum(-(-p.data.nbytes // _ALIGN) * _ALIGN for p in params)
        version_bytes = len(params) * np.dtype(np.int64).itemsize
        arena = ShmArena.create(data_bytes + version_bytes + _ALIGN, WEIGHT_SEGMENT_TAG)
        versions, _ = arena.alloc((len(params),), np.int64)
        for i, param in enumerate(params):
            view, _ = arena.alloc(param.data.shape, param.data.dtype)
            np.copyto(view, param.data)
            param.data = view
            versions[i] = param.version
            param.attach_version_slot(versions[i : i + 1])
        store = cls(arena)
        module._shm_parameter_store = store
        return store

    def unlink(self) -> None:
        self.arena.unlink()


def ensure_shared_parameters(model) -> SharedParameterStore:
    """Share the underlying net's parameters (idempotent model-level entry)."""
    net = getattr(model, "net", model)
    return SharedParameterStore.share(net)


# -- I/O ring -----------------------------------------------------------------


class ShmRing:
    """One reusable slot over a region of a shared segment.

    Carries request/response rows across the process boundary: the writer
    :meth:`place`\\ s an array at the region's base, ships the returned
    offset in a control message, and the reader maps :meth:`view` at that
    offset.

    The serving protocol keeps **at most one batch in flight per ring**
    (the replica's transport lock serialises request/reply), so every
    placement starts at the base and overwrites the previous one: the
    pages a ring ever touches are one batch's worth, on both sides of the
    fork, however large the region is.  The reader therefore owns a
    placement only until the next exchange on the same ring — it must
    consume or copy it before letting one start.
    """

    def __init__(self, segment: shared_memory.SharedMemory, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("ring needs a positive capacity")
        self.segment = segment
        self.base = offset
        self.capacity = nbytes

    def place(self, array: np.ndarray) -> int:
        """Copy ``array``'s bytes to the ring's base; returns that offset."""
        array = np.ascontiguousarray(array)
        if array.nbytes > self.capacity:
            raise MemoryError(
                f"{array.nbytes} bytes exceed the ring capacity {self.capacity}"
            )
        np.copyto(self.view(self.base, array.shape, array.dtype.name), array)
        return self.base

    def place_parts(self, parts: Sequence[np.ndarray], dtype) -> Tuple[int, int]:
        """Scatter per-request row groups into one contiguous placement.

        Returns ``(offset, rows)``.  The parts are written back-to-back
        from the ring's base (casting to ``dtype``), exactly the layout
        one stacked batch would have — the reader maps a single
        ``(rows, *part_shape)`` view.
        """
        dtype = np.dtype(dtype)
        rows = sum(p.shape[0] for p in parts)
        tail = tuple(parts[0].shape[1:])
        total = rows * math.prod(tail) * dtype.itemsize
        if total > self.capacity:
            raise MemoryError(f"{total} bytes exceed the ring capacity {self.capacity}")
        batch = self.view(self.base, (rows,) + tail, dtype.name)
        at = 0
        for part in parts:
            k = part.shape[0]
            np.copyto(batch[at : at + k], part)  # casts to the ring dtype
            at += k
        return self.base, rows

    def view(self, offset: int, shape: Sequence[int], dtype: str) -> np.ndarray:
        """Map the placement at absolute ``offset`` (reader side).

        The descriptor arrives in a control message, so it is checked, and
        refused with ``ValueError``: a ``dtype`` string outside
        :data:`~repro.utils.dtypes.TRANSPORT_DTYPES` (an object dtype would
        turn ring bytes into pointers), a shape entry that is not an
        ``int``, and a placement that does not lie inside this ring's own
        region — the neighbouring ring and the rest of the segment are one
        ``offset`` away.
        """
        if not isinstance(dtype, str) or dtype not in TRANSPORT_DTYPES:
            raise ValueError(f"dtype {dtype!r} not allowed in a ring placement")
        if not isinstance(shape, (tuple, list)) or any(type(d) is not int for d in shape):
            raise ValueError(f"bad placement shape {shape!r}")
        shape = tuple(shape)
        dtype = np.dtype(dtype)
        stop = offset + math.prod(shape) * dtype.itemsize
        end = self.base + self.capacity
        if min(shape, default=0) < 0 or not self.base <= offset <= stop <= end:
            raise ValueError(
                f"placement {shape} {dtype.name} at {offset} is outside the ring "
                f"[{self.base}, {end})"
            )
        return np.ndarray(shape, dtype=dtype, buffer=self.segment.buf, offset=offset)
