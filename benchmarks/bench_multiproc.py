"""Thread-pool vs process-pool serving throughput over shared weights.

The same batched inference work is driven through
:class:`~repro.scheduler.pool.Replica` (N session sets sharing one
interpreter — and one GIL) and :class:`~repro.scheduler.procpool.ProcessReplica`
(N forked workers over one ``multiprocessing.shared_memory`` weight arena,
rows crossing per-worker shm rings) at 1/2/4/8 workers, reporting rows/s
for each beside the shm segment counts.

Wall-clock scaling is machine-conditional — with fewer cores than workers
every backend serialises and the process pool additionally pays IPC — so
nothing here is gated or committed; ``benchmarks/e2e``'s ``sat_thread`` /
``sat_process`` workloads are the calibrated comparison.  The functional
facts (one weight segment set however many workers, one ring each, a
parent-side weight update repacks in the worker, bitwise parity, no ring
left behind) are tier-1's (``tests/scheduler/test_procpool.py``).  Run
directly to print the table and write it, env-stamped, to
``benchmarks/out/multiproc.json``::

    PYTHONPATH=src python benchmarks/bench_multiproc.py

or with ``--smoke`` (two workers, four batches each, nothing written)::

    PYTHONPATH=src python benchmarks/bench_multiproc.py --smoke
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from common import fluid_model, write_out
from repro.nn.plan import compile_width_plans
from repro.nn.shm import list_segments
from repro.scheduler.pool import Replica
from repro.scheduler.procpool import make_process_replicas
from repro.scheduler.telemetry import MetricsRegistry
from repro.utils.rng import make_rng

WIDTH = "lower100"          # the widest (heaviest) sub-network: worst GIL case
WORKER_COUNTS = (1, 2, 4, 8)
BATCH_ROWS = 16


def _drive(replicas, batch, batches_each: int) -> float:
    """One feeder thread per replica, fixed work each; returns rows/s."""
    barrier = threading.Barrier(len(replicas) + 1)
    errors: List[BaseException] = []

    def _feeder(replica) -> None:
        try:
            barrier.wait()
            for _ in range(batches_each):
                replica.run_parts([batch], WIDTH)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=_feeder, args=(r,), daemon=True) for r in replicas
    ]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return len(replicas) * batches_each * batch.shape[0] / elapsed


def measure_backend(
    model, backend: str, workers: int, *, batches_each: int
) -> Dict[str, float]:
    """Rows/s for one backend at one pool size (plus shm segment counts)."""
    batch = make_rng(7).standard_normal((BATCH_ROWS, 1, 28, 28))
    # Both backends serve the same compiled plan; a process pool's parent
    # never runs it, so there it is compiled without an arena.
    plans = compile_width_plans(
        model, [WIDTH], batch_rows=BATCH_ROWS, workspaces=int(backend == "thread")
    )
    if backend == "process":
        # ``widths``: each worker probes the plan before it answers the
        # readiness ping, off the clock like the compile above.
        replicas = make_process_replicas(
            model, workers, plans=plans, widths=[WIDTH], metrics=MetricsRegistry(),
        )
    else:
        replicas = [Replica(i, model, plans) for i in range(workers)]
    try:
        return {
            "rows_per_s": _drive(replicas, batch, batches_each),
            "weight_segments": len(list_segments("w")),
            "ring_segments": len(list_segments("r")),
        }
    finally:
        for replica in replicas:
            replica.close()


def run_benchmark(worker_counts=WORKER_COUNTS, batches_each: int = 24) -> Dict:
    model = fluid_model()
    workers: Dict[str, Dict] = {}
    for count in worker_counts:
        thread = measure_backend(model, "thread", count, batches_each=batches_each)
        process = measure_backend(model, "process", count, batches_each=batches_each)
        workers[str(count)] = {
            "thread_rows_per_s": thread["rows_per_s"],
            "process_rows_per_s": process["rows_per_s"],
            "process_vs_thread": process["rows_per_s"] / thread["rows_per_s"],
            "weight_segments": process["weight_segments"],
            "ring_segments": process["ring_segments"],
        }
    return {
        "batch_rows": BATCH_ROWS,
        "batches_per_worker": batches_each,
        "width": WIDTH,
        "workers": workers,
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="two workers, four batches each; nothing written",
    )
    parser.add_argument(
        "--batches", type=int, default=24, help="batches per worker for the full run",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_benchmark(worker_counts=(2,), batches_each=4)
    else:
        report = run_benchmark(batches_each=args.batches)
    for count, stats in report["workers"].items():
        print(
            f"  {count:>2s} workers: thread {stats['thread_rows_per_s']:8.1f} rows/s  "
            f"process {stats['process_rows_per_s']:8.1f} rows/s  "
            f"({stats['process_vs_thread']:.2f}x)  shm: "
            f"{stats['weight_segments']} weight set, {stats['ring_segments']} rings"
        )
    if args.smoke:
        print("smoke OK")
    else:
        print(f"wrote {write_out('multiproc', report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
