"""Self-tests of the benchmark harness (not of the program it measures).

Run with ``python -m pytest benchmarks/e2e -q``; tier-1 (``testpaths =
tests``) does not collect this file.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from loadgen import Window, coefficient_of_variation, percentile, run_closed_loop  # noqa: E402
from spans import Span, SpanRecorder, of_requests, self_times, sum_by_rid  # noqa: E402
import env  # noqa: E402
from workloads import SIDE_HOME, WORKLOADS, Workload, make_payloads, side_windows  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- window arithmetic ---------------------------------------------------------------


def _window(done, submitted, *, rows=1, segments=3):
    return Window(
        in_flight=1, rows=rows, start=10.0, segments=segments, segment_s=1.0,
        submitted=np.array(submitted), done=np.array(done),
    )


def test_segments_count_images_by_done_stamp_and_skip_warmup_and_drain():
    done = [9.9, 10.0, 10.5, 11.2, 11.3, 11.4, 12.999, 13.0, 0.0]
    window = _window(done, [t - 0.1 for t in done], rows=16)
    assert list(window.measured()) == [1, 2, 3, 4, 5, 6]
    assert window.segment_throughput() == [32.0, 48.0, 16.0]
    assert window.images_between(10.0, 11.0) == 32


def test_latency_is_done_minus_the_instant_before_submit():
    window = _window([10.4, 11.0, 12.5], [10.1, 10.5, 11.5])
    assert list(window.latencies_s()) == pytest.approx([0.3, 0.5, 1.0])
    assert window.segment_p99_ms() == pytest.approx([300.0, 500.0, 1000.0])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.99) == 99
    assert percentile(values, 0.50) == 50
    assert percentile([7.0], 0.99) == 7.0
    assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0


def test_closed_loop_on_a_fake_clock_measures_only_the_window():
    clock = FakeClock()

    def submit(_payload) -> Future:
        clock.advance(0.25)  # every request takes a quarter second
        future: Future = Future()
        future.set_result(None)
        return future

    edges = []
    window = run_closed_loop(
        submit, [object()], in_flight=1, rows=1, segments=2, warmup_s=1.0, capacity=100,
        clock=clock, on_edge=lambda: edges.append(clock()),
    )
    assert window.start == 101.0 and window.end == 103.0
    assert window.segment_throughput() == [4.0, 4.0]
    assert list(window.latencies_s()) == pytest.approx([0.25] * 8)
    assert edges == [101.0, 103.0]
    assert len(window.submitted) == 12  # 4 warm-up + 8 measured, none after the end


@pytest.mark.parametrize("in_flight", [1, 4, 32])
def test_semaphore_window_never_exceeds_w_in_flight(in_flight):
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}
    pool = ThreadPoolExecutor(max_workers=64)

    def work() -> None:
        time.sleep(0.001)
        with lock:
            state["now"] -= 1

    def submit(_payload) -> Future:
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        return pool.submit(work)

    try:
        window = run_closed_loop(
            submit, [object()], in_flight=in_flight, rows=1, capacity=100000,
            segments=1, segment_s=0.2, warmup_s=0.05,
        )
    finally:
        pool.shutdown(wait=True)
    assert state["peak"] <= in_flight
    assert state["now"] == 0  # the drain waited for every outstanding request
    assert (window.done > 0.0).all()


# -- span arithmetic -----------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1, None),
        Span(1, "child", 1.0, 4.0, 0, 1, None),
        Span(2, "grandchild", 2.0, 3.0, 1, 1, None),
        Span(3, "child", 5.0, 9.0, 0, 1, None),
        Span(4, "elsewhere", 0.0, 8.0, None, 2, None),  # another thread: not a child
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 8.0}
    assert sum(own[s.id] for s in spans[:4]) == spans[0].duration  # a thread's tree telescopes
    assert sum_by_rid(spans, lambda s: own[s.id]) == {1: 10.0, 2: 8.0}
    assert [s.id for s in of_requests(spans, {2})] == [4]
    batch = Span(5, "batch", 0.0, 1.0, None, (7, 8), None)
    assert of_requests([batch], {7}) == [batch] and of_requests([batch], {8}) == []


def test_recorder_nests_binds_requests_and_restores_what_it_patched():
    clock = FakeClock()

    class Layer:
        def outer(self, x):
            clock.advance(1.0)
            return self.inner(x) + 1

        def inner(self, x):
            clock.advance(2.0)
            return x

    layer = Layer()
    with SpanRecorder(clock) as rec:
        rec.patch(layer, "outer", "layer.outer")
        rec.patch(layer, "inner", "layer.inner", tag_of=lambda result: result * 10)
        rec.bind(41)
        assert layer.outer(5) == 6
        rec.bind(None)
        rec.fallback_rid = 42
        layer.inner(1)
    assert "outer" not in vars(layer) and layer.outer(1) == 2  # class methods are back
    inner, outer, lone = rec.spans
    assert (outer.name, outer.parent, outer.rid, outer.duration) == ("layer.outer", None, 41, 3.0)
    assert (inner.parent, inner.rid, inner.tag, inner.duration) == (outer.id, 41, 50, 2.0)
    assert (lone.parent, lone.rid) == (None, 42)
    assert self_times(rec.spans)[outer.id] == 1.0
    assert len(rec.spans) == 3  # nothing recorded after the patches were undone


def test_rid_of_binds_a_batch_for_its_children():
    rec = SpanRecorder(FakeClock())
    leaf = rec.wrap("leaf", lambda: None)
    batch = rec.wrap("batch", lambda parts: leaf(), rid_of=lambda parts: tuple(parts))
    batch([3, 4])
    leaf()
    assert [s.rid for s in rec.spans] == [(3, 4), (3, 4), None]


# -- inputs and vocabulary -----------------------------------------------------------


def test_payloads_depend_on_the_seed_and_nothing_else():
    a, b, c = make_payloads(5, 1), make_payloads(5, 1), make_payloads(6, 1)
    assert len(a) == 256 and a[0].shape == (1, 1, 28, 28)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    assert a[0].tobytes() != c[0].tobytes()
    assert make_payloads(5, 16)[0].shape == (16, 1, 28, 28)


def test_vocabulary_matches_benchmark_json():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    # Six end-to-end metrics were asked for; the three timings could not be
    # held within 0.10 and are per-layer metrics (43 + 3), as the issue directs.
    assert (len(WORKLOADS), len(run.END_TO_END), len(run.PER_LAYER)) == (5, 3, 46)
    assert set(run.UNGATED_TIMINGS) <= set(run.PER_LAYER)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    proposed = json.loads((HERE / "CALIBRATION.json").read_text())["bounds"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        # The issue's cap; set-up cannot be ungated, so it has the contract's (calibrate.py).
        assert 0.0 <= metric["bound"] <= (0.25 if metric is setup else 0.10)
        assert metric["bound"] == proposed[metric["name"]]["proposed"]  # bounds are calibrated, not chosen
    assert all(proposed[name]["proposed"] is None for name in run.UNGATED_TIMINGS)
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [w["name"] for w in BENCHMARK["workloads"]] + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(
        UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    )
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    # 4 + 22 runs per workload, each inside the contract's total.
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert runs * (BENCHMARK["run_seconds"] + 10) <= 3420


def test_side_windows_are_the_homes_of_the_layers_a_workload_never_enters():
    assert side_windows(WORKLOADS["b1_thread"]) == ("sat_process", "dist_ha")
    assert side_windows(WORKLOADS["sat_process"]) == ("sat_thread", "dist_ha")
    assert side_windows(WORKLOADS["dist_ht"]) == ("sat_thread", "sat_process")
    assert all(name not in side_windows(w) for name, w in WORKLOADS.items())
    prefixes = {p for home in SIDE_HOME.values() for p in home}
    assert all(any(m.startswith(p) for m in run.PER_LAYER) for p in prefixes)


def test_harness_buffers_are_resident_before_the_window():
    # Answers and stamps are written while requests are in flight; if their
    # pages were first touched then, peak_rss_mb would grow with throughput.
    class Fake:
        workload = Workload("fake", "frontend", "thread", in_flight=1, rows=1, rtol=None)
        answer = np.ones((1, 100))

        def submit(self, _payload) -> Future:
            time.sleep(1e-4)
            future: Future = Future()
            future.set_result(self.answer)
            return future

    refs = np.ones((1, 1, 100))
    env.reset_peak_rss()
    window, (opened, closed), responses = run.drive(Fake(), [None], refs, segments=1, warmup_s=0.2)
    assert len(window.measured()) * 800 > 2e6  # > 2 MB of answers landed in the window
    assert (responses.rows[window.measured()] == 1.0).all()
    assert closed.peak_rss_mb - opened.peak_rss_mb < 1.0


# -- the whole thing, briefly --------------------------------------------------------


def _run(*argv: str) -> subprocess.CompletedProcess:
    """run.py in its own session, so what it leaves running can be found."""
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    ) as proc:
        out, err = proc.communicate(timeout=120)
    with pytest.raises(ProcessLookupError):  # nobody is left in its process group
        os.killpg(proc.pid, 0)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_quick_correct_and_leaves_nothing_behind(workload):
    shm_before = set(os.listdir("/dev/shm"))
    started = time.perf_counter()
    done = _run("--workload", workload, "--seed", "3", "--smoke")
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert "phase setup: attempted 3 succeeded 3 failed 0" in done.stdout
    if workload == "dist_ht":
        assert "phase failover: attempted 4 succeeded 4 failed 0" in done.stdout
    assert elapsed < 10.0
    assert set(os.listdir("/dev/shm")) == shm_before


def test_traced_smoke_prints_every_layer_metric():
    done = _run("--workload", "b1_thread", "--seed", "3", "--smoke", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.PER_LAYER
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert 0.90 <= values["client.stage_sum_ratio"] <= 1.10
    assert values["engine.rounds_per_req"] == 4.0  # from the dist_ha side window
    assert values["scheduler.frontend.widest_share"] == 1.0
    assert (HERE / "out" / "spans-b1_thread.jsonl").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    # The driver also runs the command in a directory holding only the benchmark.
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "b1_thread", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
