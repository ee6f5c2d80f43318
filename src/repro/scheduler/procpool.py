"""Process-pool replicas: N interpreters, N GILs, one copy of the weights.

The thread-backed :class:`~repro.scheduler.pool.Replica` parallelises
inside one interpreter, so rows/s flatlines once the GIL saturates — long
before the machine does.  :class:`ProcessReplica` is the escape hatch:

* **Weights** move into shared memory **before** the workers fork
  (:func:`repro.nn.shm.ensure_shared_parameters`), so every worker maps
  the same physical pages — one weight segment set in ``/dev/shm`` no
  matter how many workers serve (the zero-copy fact
  ``benchmarks/bench_multiproc.py`` measures).
* **Invalidation** rides ``Parameter.version``: the counters live in the
  same segment, so a worker's
  :class:`~repro.nn.plan.PackedWeightCache` observes parent-side weight
  updates on its ordinary lock-free version compare and repacks — no
  invalidation message exists in the protocol.
* **Plans** are the frontend's own ``plans`` dict, handed to every
  worker compiled and packed by ``fork``: a worker compiles nothing and
  grows its workspaces in its own memory (the parent never runs them, so
  no lock inside a plan is held at ``fork``).  **Before it reads its
  first message** a worker probes each of its widths once through its
  own ``RUN_PARTS`` handler and rings; worker 0 then times one more probe
  per width for the PONG answering the readiness PING
  (:attr:`ProcessReplica.primes`).  Every worker is forked before any is
  waited for, so a replica handed out has nothing cold left in it.
* **Rows** cross the boundary through one reusable shared-memory slot
  per direction (:class:`~repro.nn.shm.ShmRing`); the wire carries only
  a placement descriptor, never pickled arrays.  One exchange is in
  flight per worker (``_transport_lock``) and the reply is copied out of
  the out-ring *before* that lock is released, so every batch reuses the
  same few pages.  :data:`RING_BYTES` is the size above which a batch
  travels as inline arrays on the same message instead.
* **Compute budget**: each worker pins ``OMP_NUM_THREADS`` (and the
  loaded OpenBLAS) to its slice of the machine, so K workers × B threads
  never oversubscribe the cores.

The frontend talks to a worker over the existing
:class:`~repro.engine.endpoints.TransportEndpoint` wire protocol
(extended with the ``run_parts`` op) on an ``AF_UNIX`` socketpair.  The
worker serves on the one worker-side loop,
:class:`~repro.distributed.worker.WorkerLoop`, with its own handler table
(:class:`ProcessWorker`).  The endpoint is built with the process's
liveness as its ``alive_probe``: a worker that misses the request timeout
while its process is still alive is waited for (the hedge watchdog covers
stragglers independently); a dead process surfaces as
:class:`~repro.scheduler.pool.ReplicaUnavailable` and flows through the
pool's ordinary eject/reroute machinery.
"""

from __future__ import annotations

import builtins
import ctypes
import functools
import os
import signal
import socket
import threading
import time
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.message import Message, MessageKind, result_message
from repro.comm.tcp import TcpTransport
from repro.comm.transport import TransportError
from repro.distributed.worker import WorkerLoop
from repro.engine.endpoints import (
    EndpointError,
    EndpointReply,
    EndpointUnavailable,
    TransportEndpoint,
)
from repro.nn.shm import RING_SEGMENT_TAG, ShmRing, _unlink_quietly, create_segment
from repro.scheduler.pool import Replica, ReplicaUnavailable, probe_input
from repro.scheduler.telemetry import MetricsRegistry
from repro.utils.dtypes import compute_dtype

#: Per-direction ring size (rows in, logits out): the threshold above
#: which a batch travels inline on the wire instead.  Only the pages a
#: batch actually covers are ever touched (a 16-row float64 MNIST batch
#: is ~100 KB), so the size costs address space, not memory.
RING_BYTES = 16 << 20
#: How long a reply may take before the endpoint asks whether the worker
#: process is still alive (a live one is waited for).
REQUEST_TIMEOUT_S = 2.0
#: How long a forked worker may take to run its boot probes and answer the
#: readiness ping.  A worker that *dies* while booting fails the wait at
#: once (its socket closes); this only bounds one that hangs.
BOOT_TIMEOUT_S = 30.0

_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_BLAS_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads_local",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "goto_set_num_threads",
    "scipy_goto_set_num_threads64_",
)


def _loaded_blas_libraries() -> List[str]:
    """Paths of BLAS shared objects already mapped into this process."""
    paths: List[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split(None, 5)[-1].strip() if " " in line else ""
                if (
                    path.endswith(".so")
                    or ".so." in path
                ) and ("blas" in path.lower() or "goto" in path.lower()):
                    if path not in paths:
                        paths.append(path)
    except OSError:
        pass
    return paths


@functools.lru_cache(maxsize=None)
def _blas_thread_setters() -> Tuple[Callable, ...]:
    """The thread-count setter of every BLAS mapped into this process.

    Resolved once: scanning ``/proc/self/maps`` and re-opening each
    library through ctypes is a fifth of a worker's boot, and ``fork``
    hands the child the parent's mappings and this cache with them — the
    parent resolves before it forks, the worker only calls.
    """
    setters = []
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                setters.append(fn)
                break
    return tuple(setters)


def pin_blas_threads(n: int) -> bool:
    """Pin this process's BLAS/OpenMP pool to ``n`` threads.

    Sets the usual environment knobs (effective for libraries loaded
    later / in children) and calls the thread-count setter of any
    already-loaded OpenBLAS via ctypes (environment variables are read
    only at library init, so a forked worker must set the live pool
    explicitly).  Returns True when a live library accepted the call.
    """
    n = max(1, int(n))
    for var in _BLAS_ENV_VARS:
        os.environ[var] = str(n)
    setters = _blas_thread_setters()
    for setter in setters:
        setter(n)
    return bool(setters)


def _worker_error(exc: EndpointError) -> Exception:
    """The exception a live worker's ERROR reply names: a builtin exception
    type comes back as itself, any other type (or one its message alone
    cannot build) as a ``RuntimeError`` carrying the whole reply."""
    kind = getattr(builtins, exc.error or "", None)
    if isinstance(kind, type) and issubclass(kind, Exception):
        try:
            return kind(exc.detail)
        except (TypeError, ValueError):
            pass
    return RuntimeError(str(exc))


def partition_thread_budget(workers: int) -> int:
    """Per-worker BLAS thread budget: an even split of the visible cores."""
    try:
        total = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        total = os.cpu_count() or 1
    return max(1, total // max(1, workers))


def _packs(plans: Dict[str, object]) -> int:
    """(Re-)packs so far of the weight caches ``plans`` serve from, each once."""
    return sum({id(p.cache): p.cache.packs for p in plans.values()}.values())


def _rows_request(ring: ShmRing, parts: Sequence[np.ndarray], dtype) -> Tuple[Dict, Dict]:
    """``(fields, arrays)`` of a ``RUN_PARTS`` request: the rows placed in
    ``ring``, or one inline array when the batch outgrows it."""
    try:
        offset, rows = ring.place_parts(parts, dtype)
    except MemoryError:
        stacked = np.ascontiguousarray(
            np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0],
            dtype=dtype,
        )
        return {}, {"x": stacked}
    fields = {
        "ring_offset": int(offset),
        "rows": int(rows),
        "row_shape": [int(d) for d in parts[0].shape[1:]],
        "dtype": np.dtype(dtype).name,
    }
    return fields, {}


# -- worker side ---------------------------------------------------------------


class ProcessWorker(WorkerLoop):
    """A forked worker's handlers on the one worker loop.

    ``RUN_PARTS`` serves a batch through a local :class:`Replica` over the
    frontend's plans, rows read from the in-ring and logits written to the
    out-ring (inline arrays either way when a batch outgrows its ring);
    ``PING`` answers with the boot PONG (:attr:`pong`); ``CRASH`` ends the
    process on the spot.
    """

    HANDLERS = {
        **WorkerLoop.HANDLERS,
        MessageKind.RUN_PARTS: "_run_parts",
        MessageKind.PING: "_ping",
        MessageKind.CRASH: "_crash",
    }

    def __init__(self, transport, model, plans, in_ring: ShmRing, out_ring: ShmRing) -> None:
        super().__init__(transport)
        self.replica, self.plans = Replica(0, model, plans), plans
        self.in_ring, self.out_ring = in_ring, out_ring
        self.pong = Message(MessageKind.PONG)  # the boot probes fill it in

    def _ping(self, message: Message) -> Message:
        return self.pong

    def _crash(self, message: Message) -> None:
        os._exit(1)

    def _run_parts(self, message: Message) -> Message:
        fields = message.fields
        if "ring_offset" in fields:
            shape = (int(fields["rows"]),) + tuple(fields["row_shape"])
            x = self.in_ring.view(int(fields["ring_offset"]), shape, fields["dtype"])
        else:
            x = message.arrays["x"]
        started = time.perf_counter()
        out = self.replica.run(x, fields["spec"])
        reply_fields = {
            "compute_s": time.perf_counter() - started,
            "rows": int(out.shape[0]),
            "packs": _packs(self.plans),  # cumulative; the parent diffs per reply
        }
        if out.nbytes <= self.out_ring.capacity:
            return result_message(
                {},
                **reply_fields,
                ring_offset=int(self.out_ring.place(out)),
                out_shape=[int(d) for d in out.shape],
                dtype=out.dtype.name,
            )
        return result_message({"out": out}, **reply_fields)

    def probe(self, x: np.ndarray, width: str, wire: bool = False) -> float:
        """Seconds of one ``RUN_PARTS`` request for ``x`` through the handler
        and the rings; ``wire`` adds the codec both ways, as an exchange."""
        dtype = compute_dtype(training=False)
        started = time.perf_counter()
        fields, arrays = _rows_request(self.in_ring, [x], dtype)
        request = Message(MessageKind.RUN_PARTS, fields={"spec": width, **fields}, arrays=arrays)
        if wire:
            Message.decode(self._run_parts(Message.decode(request.encode())).encode())
        else:
            self._run_parts(request)
        return time.perf_counter() - started


def _worker_main(
    model,
    transport_sock: socket.socket,
    in_ring: ShmRing,
    out_ring: ShmRing,
    plans: Dict[str, object],
    omp_threads: int,
    widths: Sequence[str],
    timed: bool,
) -> None:
    """Forked worker entry: boot, then serve on the one loop until it ends.

    Inherits ``model`` over shared-memory weights, the parent's rings and
    its compiled ``plans``, served as a thread replica serves them.  Boot,
    before the first message: one untimed 1-row probe per width through
    the handler and rings (a first run also faults a fresh arena in: up to
    twice a steady exchange), then, when ``timed``, one more per width —
    the seconds the PONG carries.  A failure here ends the process.
    """
    signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    pin_blas_threads(omp_threads)

    worker = ProcessWorker(TcpTransport(transport_sock), model, plans, in_ring, out_ring)
    probe = probe_input(model)
    for width in widths:
        worker.probe(probe, width)
    primes = {width: worker.probe(probe, width, wire=True) for width in widths} if timed else {}
    worker.pong = Message(MessageKind.PONG, fields={"primes": primes, "packs": _packs(plans)})
    try:
        worker.serve_forever()
    finally:
        # Skip inherited atexit machinery (pytest plugins, parent cleanup
        # hooks): the worker owns nothing that outlives it — the ring and
        # weight segments belong to the parent.
        os._exit(0)


# -- parent side ---------------------------------------------------------------


class ProcessReplica(Replica):
    """One forked serving worker behind the :class:`Replica` interface.

    Call only after the model's parameters were moved into shared memory
    (:func:`repro.nn.shm.ensure_shared_parameters`) — the fork then
    inherits shm-backed storage, and parent-side weight writes (plus
    their version bumps) are visible in every worker immediately.

    The worker serves ``plans`` (which the parent must never run) and
    probes ``widths`` on its own time; replica 0, the one a frontend
    primes from, also times them (:attr:`primes`), the others come up
    that much sooner.  Nothing may be served before :meth:`wait_ready`
    returns — the probes use the rings: fork every worker, then wait.
    """

    def __init__(
        self,
        index: int,
        model,
        *,
        plans: Optional[Dict[str, object]] = None,
        widths: Sequence[str] = (),
        omp_threads: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(index, model, plans=plans)
        self.metrics = metrics or MetricsRegistry()
        ring_bytes = RING_BYTES
        self._segment = create_segment(RING_SEGMENT_TAG, 2 * ring_bytes)
        self._in_ring = ShmRing(self._segment, 0, ring_bytes)
        self._out_ring = ShmRing(self._segment, ring_bytes, ring_bytes)
        self._transport_lock = threading.Lock()  # one in-flight batch per worker
        self._stop_sent: Optional[bool] = None  # did stop() deliver SHUTDOWN; None: not tried
        self._reaped = False  # set once close() has reaped the process object
        self.primes: Dict[str, float] = {}  # replica 0's timed boot probes
        self._last_packs = _packs(self._plans)  # the worker's starting count

        _blas_thread_setters()  # resolved here so the fork inherits them
        parent_sock, child_sock = socket.socketpair()
        ctx = get_context("fork")
        self._proc = ctx.Process(
            target=_worker_main,
            args=(model, child_sock, self._in_ring, self._out_ring, self._plans,
                  omp_threads, tuple(widths), index == 0),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        self._proc.start()
        child_sock.close()
        self._endpoint = TransportEndpoint(
            f"worker-{index}",
            TcpTransport(parent_sock),
            request_timeout=REQUEST_TIMEOUT_S,
            alive_probe=self._proc.is_alive,
        )

    # -- health ---------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive and self._proc.is_alive()

    def ping(self) -> bool:
        """Heartbeat target: OS-level process liveness.

        Deliberately *not* a transport round-trip — the request/reply
        stream is busy with batches, and an interleaved ping would steal
        a reply.  ``kill -9`` flips this within one heartbeat interval.
        """
        return self._alive and self._proc.is_alive()

    def wait_ready(self) -> "ProcessReplica":
        """Block until the worker has booted: its answer to one PING.

        The worker reads no message before it has probed every width, so
        the PONG means "warm" (on replica 0 it carries the :attr:`primes`).
        A worker that died on the way closed its socket, which fails the
        wait at once; one that hangs fails it after :data:`BOOT_TIMEOUT_S`;
        a PONG without numeric ``primes`` / ``packs`` fails it too.  Either
        way the replica is closed and :class:`ReplicaUnavailable` raised.
        """
        with self._transport_lock:
            pong = self._endpoint.pong(timeout=BOOT_TIMEOUT_S)
        try:
            if pong is None:
                raise ValueError("no PONG")
            self.primes = {w: float(s) for w, s in pong.fields["primes"].items()}
            self._count_repacks(int(pong.fields["packs"]))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            self.close()
            raise ReplicaUnavailable(f"worker {self.index} did not come up: {exc!r}") from exc
        return self

    def warm_service_s(self, widths: Sequence[str]) -> Dict[str, float]:
        """Replica 0's timed boot probes (:attr:`primes`): nothing more is run."""
        return {width: self.primes[width] for width in widths}

    def kill(self) -> None:
        """``kill -9`` the worker (the fault-injection twin of thread kill)."""
        if self._proc.is_alive():
            self._proc.kill()
        self._alive = False

    def revive(self) -> None:
        raise RuntimeError("a SIGKILLed worker process cannot be revived")

    # -- serving --------------------------------------------------------------

    def run(self, x: np.ndarray, width: str) -> np.ndarray:
        return self.run_parts([x], width)

    def run_parts(self, parts: List[np.ndarray], width: str) -> np.ndarray:
        if not self.ping():
            raise ReplicaUnavailable(f"worker {self.index} is down")
        dtype = compute_dtype(training=False)
        with self._transport_lock:
            started = time.perf_counter()
            fields, arrays = _rows_request(self._in_ring, parts, dtype)
            try:
                reply = self._endpoint.run_parts(width, fields, arrays)
            except EndpointUnavailable as exc:
                if isinstance(exc, EndpointError) and self._proc.is_alive():
                    # An ERROR reply from a live worker: the transport is in
                    # sync and only this batch failed, as a thread replica's
                    # exception fails it.  No reroute, no ejection.
                    raise _worker_error(exc) from exc
                # A dead process / closed transport is permanent.
                if not (self._proc.is_alive() and self._endpoint.available):
                    self._alive = False
                raise ReplicaUnavailable(f"worker {self.index} lost: {exc}") from exc
            service_s = time.perf_counter() - started
            if "ring_offset" in reply.fields:
                # Copied while the lock still excludes the next exchange:
                # that exchange's reply lands on these very bytes.
                out = self._out_ring.view(
                    int(reply.fields["ring_offset"]),
                    tuple(reply.fields["out_shape"]),
                    reply.fields["dtype"],
                ).copy()
            else:
                out = reply.arrays["out"]
        self._observe(reply, out.shape[0], service_s)
        return out

    def _observe(self, reply: EndpointReply, rows: int, service_s: float) -> None:
        """Per-worker telemetry: rows served, repacks, measured rows/s."""
        label = f"worker.{self.index}"
        self.metrics.counter(f"{label}.rows").inc(rows)
        self.metrics.counter(f"{label}.batches").inc()
        self._count_repacks(int(reply.fields.get("packs", self._last_packs)))
        if service_s > 0:
            self.metrics.ewma(f"{label}.rows_per_s").observe(rows / service_s)

    def _count_repacks(self, packs: int) -> None:
        # Cumulative packs the worker reports, against the plans' count at fork.
        if packs > self._last_packs:
            self.metrics.counter(f"worker.{self.index}.repacks").inc(packs - self._last_packs)
            self._last_packs = packs

    # -- lifecycle ------------------------------------------------------------

    def stop(self, timeout: float = 5.0) -> None:
        """Tell the worker to stop, without waiting for it to.

        The transport lock is held by any in-flight exchange; a *hung*
        exchange (stalled worker, dropped reply) must not stall shutdown
        forever, so this waits at most ``timeout`` for the lock and
        otherwise leaves the worker to :meth:`close`'s signal escalation.
        """
        self._alive = False
        if self._stop_sent is not None or self._reaped or not self._proc.is_alive():
            return
        self._stop_sent = False
        if self._transport_lock.acquire(timeout=timeout):
            try:
                self._endpoint.shutdown()  # sends SHUTDOWN, closes transport
                self._stop_sent = True
            except (TransportError, OSError):
                pass
            finally:
                self._transport_lock.release()

    def close(self, timeout: float = 5.0) -> None:
        """Bounded shutdown: :meth:`stop`, join, SIGTERM, SIGKILL, unlink.

        A worker that took the SHUTDOWN message is joined; one that could
        not be told (wedged transport lock) or does not leave goes
        straight to signal escalation.  Either way the worker is dead and
        the ring segment unlinked when this returns.
        """
        self.stop(timeout)
        if self._reaped:
            return  # idempotent: the process object is already closed
        if self._stop_sent:
            self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self._proc.terminate()  # SIGTERM: the worker's handler exits
            self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self._proc.kill()  # SIGKILL: unconditional
            self._proc.join(timeout=timeout)
        if not self._stop_sent:
            try:
                self._endpoint.transport.close()
            except (TransportError, OSError):
                pass
        self._proc.close()
        self._reaped = True
        _unlink_quietly(self._segment.name)

    def __repr__(self) -> str:
        state = "up" if self.ping() else "down"
        return f"ProcessReplica({self.index}, {state}, pending={self.pending})"


def make_process_replicas(
    model,
    count: int,
    *,
    plans: Optional[Dict[str, object]] = None,
    widths: Sequence[str] = (),
    metrics: Optional[MetricsRegistry] = None,
) -> List[ProcessReplica]:
    """Share the weights, partition the thread budget, fork ``count`` workers.

    Every worker is forked before any is waited for, so they probe
    ``widths`` side by side; the replicas returned have all answered
    their readiness ping.  If one does not come up, all are closed.
    """
    from repro.nn.shm import ensure_shared_parameters

    ensure_shared_parameters(model)
    budget = partition_thread_budget(count)
    replicas = [
        ProcessReplica(
            i,
            model,
            plans=plans,
            widths=widths,
            omp_threads=budget,
            metrics=metrics,
        )
        for i in range(count)
    ]
    try:
        for replica in replicas:
            replica.wait_ready()
    except ReplicaUnavailable:
        for replica in replicas:
            replica.close()
        raise
    return replicas
