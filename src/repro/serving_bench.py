"""Serving throughput comparison harness.

Drives the same request load through three serving strategies and reports
requests/sec for each:

* **serial** — one :class:`~repro.engine.session.InferenceSession`, one
  request at a time (the pre-session baseline: per-endpoint serialization);
* **concurrent** — K sessions over the *same* weight store, K threads each
  draining a shard of the request stream (zero weight copies);
* **micro_batched** — all requests funnelled through a
  :class:`~repro.runtime.batching.MicroBatchQueue` that coalesces them
  into large batched forwards over one shared session.

Used by ``python -m repro serve`` and by
``benchmarks/bench_serving_throughput.py`` (which records the report to
``BENCH_serving.json``).  Outputs are checked bit-identical across
strategies before any number is reported.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

from repro.engine.session import InferenceSession
from repro.runtime.batching import BatchingConfig, MicroBatchQueue
from repro.utils.rng import derive_seed, make_rng


def _make_requests(
    num_requests: int, image_size: int, in_channels: int, seed: int
) -> List[np.ndarray]:
    """Deterministic single-image request payloads, seeded through
    :func:`repro.utils.rng.derive_seed` so the stream is reproducible
    run-to-run and independent of other consumers of ``seed``."""
    rng = make_rng(derive_seed(seed, "serving", "payloads"))
    return [
        rng.standard_normal((1, in_channels, image_size, image_size))
        for _ in range(num_requests)
    ]


def _parameter_ids(session: InferenceSession) -> List[int]:
    return [id(p.data) for p in session.parameters()]


def run_serving_comparison(
    model,
    subnet: str,
    *,
    num_requests: int = 256,
    concurrency: int = 4,
    max_batch: int = 32,
    max_delay_s: float = 0.002,
    seed: int = 0,
) -> Dict:
    """Serve ``num_requests`` single-image requests three ways; compare."""
    if concurrency <= 0:
        raise ValueError("concurrency must be positive")
    net = model.net
    requests = _make_requests(num_requests, net.image_size, net.in_channels, seed)

    # K sessions, all aliasing the same parameter store (zero copies).
    sessions = [InferenceSession(model, subnet) for _ in range(concurrency)]
    baseline_ids = _parameter_ids(sessions[0])
    zero_copy = all(_parameter_ids(s) == baseline_ids for s in sessions)

    # -- serial ---------------------------------------------------------------
    started = time.perf_counter()
    serial_out = [sessions[0].run(x) for x in requests]
    serial_s = time.perf_counter() - started

    # -- concurrent shards ----------------------------------------------------
    shards = [list(range(i, num_requests, concurrency)) for i in range(concurrency)]
    concurrent_out: List[np.ndarray] = [None] * num_requests  # type: ignore[list-item]

    def _drain(worker: int) -> None:
        session = sessions[worker]
        for index in shards[worker]:
            concurrent_out[index] = session.run(requests[index])

    threads = [
        threading.Thread(target=_drain, args=(i,), name=f"serve-{i}")
        for i in range(concurrency)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    concurrent_s = time.perf_counter() - started

    # -- micro-batched --------------------------------------------------------
    config = BatchingConfig(max_batch=max_batch, max_delay_s=max_delay_s)
    queue = MicroBatchQueue(sessions[0].run, config)
    started = time.perf_counter()
    futures = [queue.submit(x) for x in requests]
    batched_out = [f.result(timeout=60.0) for f in futures]
    batched_s = time.perf_counter() - started
    queue.close()

    # Weights must be untouched; concurrent serving must be bit-identical to
    # serial (same per-request computation).  Micro-batching runs bigger
    # GEMMs, which legally reorders BLAS accumulation, so it is compared to
    # float tolerance instead.
    zero_copy = zero_copy and _parameter_ids(sessions[0]) == baseline_ids
    # Tolerance scales with the compute dtype (float32 fast path reorders
    # accumulation at ~1e-6 relative precision).
    tol = 1e-9 if serial_out[0].dtype == np.float64 else 1e-4
    for i in range(num_requests):
        if not np.array_equal(serial_out[i], concurrent_out[i]):
            raise AssertionError(f"concurrent serving diverged on request {i}")
        if not np.allclose(serial_out[i], batched_out[i], rtol=tol, atol=tol):
            raise AssertionError(f"micro-batched serving diverged on request {i}")

    def _mode(elapsed: float) -> Dict:
        return {
            "elapsed_s": elapsed,
            "requests_per_s": num_requests / elapsed if elapsed > 0 else float("inf"),
        }

    report = {
        "num_requests": num_requests,
        "concurrency": concurrency,
        "subnet": subnet,
        "config": {"max_batch": max_batch, "max_delay_s": max_delay_s},
        "zero_copy": zero_copy,
        "modes": {
            "serial": _mode(serial_s),
            "concurrent": _mode(concurrent_s),
            "micro_batched": {
                **_mode(batched_s),
                "mean_batch_rows": queue.stats.mean_batch_rows(),
                "batches": queue.stats.batches,
                "full_flushes": queue.stats.full_flushes,
                "deadline_flushes": queue.stats.deadline_flushes,
            },
        },
        "speedup": {
            "concurrent_vs_serial": serial_s / concurrent_s if concurrent_s > 0 else 0.0,
            "micro_batched_vs_serial": serial_s / batched_s if batched_s > 0 else 0.0,
        },
    }
    return report
