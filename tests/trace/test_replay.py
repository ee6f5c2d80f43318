"""Trace replay: deterministic simulation, live frontend replay, round trips."""

import json
from pathlib import Path

import pytest

from repro.models.zoo import build_model
from repro.scheduler.frontend import SchedulerConfig
from repro.trace.recorder import (
    LATE,
    OK,
    REJECTED,
    RequestSpec,
    TraceRecorder,
    canonical_dumps,
    write_trace,
)
from repro.trace.replay import TraceReplayer, payload_for, sla_for, summarize_outcomes
from repro.trace.scenarios import SCENARIOS
from repro.trace.tracer import Tracer
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


def tiny_specs(n=8, deadline_s=5.0, spacing_s=0.005):
    return [
        RequestSpec(
            request_id=i, arrival_s=i * spacing_s, deadline_s=deadline_s,
            payload_seed=100 + i,
        )
        for i in range(n)
    ]


class TestPayloadRegeneration:
    def test_payload_is_deterministic_per_seed(self, model):
        spec = tiny_specs()[3]
        a = payload_for(spec, model.net)
        b = payload_for(spec, model.net)
        assert (a == b).all()
        assert a.shape == (1, 1, 28, 28)  # the model's default image

    def test_explicit_shape_wins(self, model):
        spec = RequestSpec(
            request_id=0, arrival_s=0.0, deadline_s=1.0,
            payload_seed=7, shape=(2, 1, 28, 28),
        )
        assert payload_for(spec, model.net).shape == (2, 1, 28, 28)

    def test_sla_mirrors_the_spec(self):
        spec = RequestSpec(
            request_id=0, arrival_s=0.0, deadline_s=0.03,
            priority=1, min_width="lower50", max_width="lower75",
        )
        sla = sla_for(spec)
        assert (sla.deadline_s, sla.priority) == (0.03, 1)
        assert (sla.min_width, sla.max_width) == ("lower50", "lower75")


class TestSummarize:
    def test_empty_latency_stats_are_none(self):
        summary = summarize_outcomes(
            [{"outcome": REJECTED, "latency_s": None}], duration_s=1.0
        )
        assert summary["miss_rate"] == 1.0
        assert summary["goodput_rps"] == 0.0
        assert summary["latency"]["p99_s"] is None


class TestConstruction:
    def test_specs_are_sorted_by_arrival(self):
        specs = list(reversed(tiny_specs()))
        replayer = TraceReplayer(specs)
        arrivals = [s.arrival_s for s in replayer.specs]
        assert arrivals == sorted(arrivals)

    def test_from_file_matches_from_scenario(self, tmp_path):
        spec = SCENARIOS["bursts"]
        path = write_trace(tmp_path / "bursts.jsonl", spec.generate(), meta=spec.meta())
        from_file = TraceReplayer.from_file(path)
        from_zoo = TraceReplayer.from_scenario("bursts")
        assert list(from_file.specs) == list(from_zoo.specs)
        assert from_file.duration_s == from_zoo.duration_s


class TestSimulate:
    def test_is_bit_deterministic(self, model):
        rec1, rec2 = TraceRecorder(), TraceRecorder()
        replayer = TraceReplayer.from_scenario("heavy_tail")
        r1 = replayer.simulate(model, recorder=rec1)
        r2 = replayer.simulate(model, recorder=rec2)
        assert rec1.dumps() == rec2.dumps()
        assert r1["outcomes"] == r2["outcomes"]
        assert r1["latency"] == r2["latency"]

    def test_every_request_gets_exactly_one_outcome(self, model):
        result = TraceReplayer.from_scenario("adversarial").simulate(model)
        assert sum(result["outcomes"].values()) == result["requests"]
        assert result["requests"] == len(SCENARIOS["adversarial"].generate())

    def test_batch_rows_histogram_accounts_for_every_flush(self, model):
        """The simulated flush shapes the batch-rows histogram records."""
        result = TraceReplayer.from_scenario("bursts").simulate(model)
        batches = result["batches"]
        assert sum(batches["rows"].values()) == batches["count"]
        assert all(rows >= 1 for rows in batches["rows"])
        # Every served (non-rejected, non-lost) request rode exactly one batch.
        served = sum(rows * n for rows, n in batches["rows"].items())
        assert served == result["outcomes"][OK] + result["outcomes"][LATE]

    @staticmethod
    def _simulate_rows(model, rows_per_request, **config):
        """Simultaneous multi-row requests pinned to one width on one replica."""
        specs = [
            RequestSpec(
                request_id=i, arrival_s=0.0, deadline_s=5.0,
                min_width="lower100", max_width="lower100",
                shape=(rows, 1, 28, 28),
            )
            for i, rows in enumerate(rows_per_request)
        ]
        return TraceReplayer(specs, duration_s=1.0).simulate(
            model, SchedulerConfig(replicas=1, enable_admission=False, **config)
        )

    def test_row_budget_counts_rows_not_requests(self, model):
        """Eight 4-row requests are two full 16-row batches, as
        MicroBatchQueue would flush them — not one 8-request batch."""
        result = self._simulate_rows(model, [4] * 8, max_batch=16)
        assert result["batches"] == {"count": 2, "rows": {16: 2}}
        first, second = (
            {r["latency_s"] for r in result["records"][i : i + 4]} for i in (0, 4)
        )
        assert len(first) == len(second) == 1  # one latency per batch ...
        assert first.pop() < second.pop()      # ... the second waits for the first
        # Service time follows rows too: a 16-row batch costs what sixteen
        # batched 1-row requests cost.
        ones = self._simulate_rows(model, [1] * 16, max_batch=16)
        assert ones["batches"] == {"count": 1, "rows": {16: 1}}
        assert ones["records"][0]["latency_s"] == result["records"][0]["latency_s"]

    def test_overflowing_request_is_carried_to_the_next_batch(self, model):
        """A request that would push the open batch past max_batch flushes
        it and seeds the next one (which then waits out its own timer)."""
        result = self._simulate_rows(model, [6, 6, 6], max_batch=16)
        assert result["batches"] == {"count": 2, "rows": {6: 1, 12: 1}}
        a, b, carried = (r["latency_s"] for r in result["records"])
        assert a == b < carried

    def test_lone_oversized_request_is_served_alone(self, model):
        result = self._simulate_rows(model, [12, 20, 1], max_batch=16)
        assert result["batches"] == {"count": 3, "rows": {1: 1, 12: 1, 20: 1}}
        assert result["outcomes"][OK] == 3

    def test_depth_counts_requests(self, model):
        """The brown-out / admission depth signal stays per request, as the
        live plane's pending counters are: 4-row requests are not 4 deep."""
        from repro.faults.policy import BrownoutPolicy

        config = dict(max_batch=16, brownout=BrownoutPolicy(enter_queue_depth=8,
                                                            exit_queue_depth=2))
        assert self._simulate_rows(model, [4] * 7, **config)["outcomes"][OK] == 7
        shed = self._simulate_rows(model, [1] * 12, **config)["outcomes"]
        assert shed[REJECTED] > 0

    def test_tight_deadlines_are_rejected_not_served(self, model):
        """Admission arithmetic is real: impossible deadlines fail fast."""
        specs = [
            RequestSpec(request_id=i, arrival_s=0.001 * i, deadline_s=1e-6)
            for i in range(5)
        ]
        result = TraceReplayer(specs, duration_s=0.1).simulate(model)
        assert result["outcomes"][REJECTED] == 5

    def test_generous_deadlines_all_ok_at_widest(self, model):
        result = TraceReplayer(tiny_specs(), duration_s=0.1).simulate(model)
        assert result["outcomes"][OK] == 8
        assert set(result["widths"]) == {"lower100"}  # budget fits the widest

    def test_recorded_artifact_is_replayable(self, model, tmp_path):
        """simulate -> write -> from_file -> simulate reproduces outcomes."""
        recorder = TraceRecorder(tmp_path / "sim.jsonl")
        replayer = TraceReplayer.from_scenario("bursts")
        first = replayer.simulate(model, recorder=recorder)
        again = TraceReplayer.from_file(recorder.write())
        rec2 = TraceRecorder()
        second = again.simulate(model, recorder=rec2)
        assert first["outcomes"] == second["outcomes"]
        assert canonical_dumps(recorder.records) == canonical_dumps(rec2.records)


class TestPinnedRecord:
    """The committed virtual-time facts, re-derived in tier-1.

    ``BENCH_trace_replay.json`` was recorded before the decision path moved
    into ``scheduler/core.py``; exact equality here is the proof that the
    move (and any later edit of ``core.decide``) changed no decision.
    """

    RECORD = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCH_trace_replay.json").read_text()
    )

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_simulation_reproduces_the_committed_scenario_facts(self, model, name):
        fact = self.RECORD["scenarios"][name]
        result = TraceReplayer.from_scenario(name).simulate(
            model, SchedulerConfig(replicas=self.RECORD["replicas"])
        )
        assert result["requests"] == fact["requests"]
        assert result["outcomes"] == fact["outcomes"]
        assert result["widths"] == fact["widths"]
        assert result["miss_rate"] == fact["miss_rate"]
        assert result["goodput_rps"] == fact["goodput_rps"]
        assert result["latency"]["p99_s"] == fact["p99_s"]


class TestLiveReplay:
    def test_tiny_replay_end_to_end(self, model):
        replayer = TraceReplayer(tiny_specs(), name="tiny", duration_s=0.1)
        tracer = Tracer(sampling=1.0)
        recorder = TraceRecorder()
        result = replayer.replay(
            model, SchedulerConfig(replicas=1, warmup=False),
            tracer=tracer, recorder=recorder,
        )
        assert result["mode"] == "live"
        assert result["outcomes"][OK] == 8
        assert len(recorder) == 8
        kinds = [e["kind"] for e in recorder.records[0].events]
        for expected in ("submit", "admission", "width", "enqueue", "batch",
                         "execute", "resolve"):
            assert expected in kinds, f"missing {expected} in {kinds}"
        assert tracer.stats()["in_flight_requests"] == 0
        assert result["frontend"]["batching"]  # snapshotted before close

    def test_live_record_is_replayable_in_sim(self, model, tmp_path):
        """The record-of-a-replay round trip across modes."""
        recorder = TraceRecorder(tmp_path / "live.jsonl")
        TraceReplayer(tiny_specs(), duration_s=0.1).replay(
            model, SchedulerConfig(replicas=1, warmup=False), recorder=recorder,
        )
        again = TraceReplayer.from_file(recorder.write())
        result = again.simulate(model)
        assert result["requests"] == 8
        assert sum(result["outcomes"].values()) == 8
