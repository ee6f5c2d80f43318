"""What the benchmark tree claims, re-derived in tier-1.

The rule (README, "Tests and measurements"): a number is committed at the
repo root only if a test here regenerates it — in-process, through the same
function its script writes it with — and finds it *equal*; a fact about the
code is asserted against the regenerated values, never read off a stored
flag.  Wall-clock numbers are ``benchmarks/e2e``'s and are not committed.
``REPRO.json``'s analytic half is re-derived, and its claims checked, in
``tests/experiments/test_paper.py``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))  # the scripts import `common` by bare name

import bench_chaos  # noqa: E402
import bench_scheduler  # noqa: E402
import bench_trace_replay  # noqa: E402
import bench_tuning  # noqa: E402
import run_smokes  # noqa: E402
from common import fluid_model  # noqa: E402

from repro.scheduler.config import SchedulerConfig  # noqa: E402
from repro.trace.replay import TraceReplayer  # noqa: E402
from repro.trace.scenarios import SCENARIOS  # noqa: E402

#: Every BENCH record at the repo root; each has a regenerating test below.
ROOT_RECORDS = ("BENCH_chaos.json", "BENCH_trace_replay.json", "BENCH_tuning.json")


@pytest.fixture(scope="module")
def model():
    return fluid_model()


def committed(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


class TestCommittedRecords:
    def test_every_root_record_has_a_regenerator(self):
        assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == list(ROOT_RECORDS)
        names = [*ROOT_RECORDS, "REPRO.json"]
        assert sum((ROOT / n).stat().st_size for n in names) <= 20 * 1024

    def test_trace_replay_record_regenerates(self, model):
        payload = bench_trace_replay.record_payload(model)
        assert payload == committed("BENCH_trace_replay.json")
        # One outcome per request, and the pinned stream is the simulated one.
        for name, fact in payload["scenarios"].items():
            assert sum(fact["outcomes"].values()) == fact["requests"] > 0
            assert payload["corpus"][name]["requests"] == fact["requests"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_corpus_is_its_generators_bytes(self, name):
        path = bench_trace_replay.corpus_path(name)
        assert path.read_text() == bench_trace_replay.corpus_text(name), (
            f"{path} drifted from its generator (seed {SCENARIOS[name].seed})"
        )
        assert list(TraceReplayer.from_file(path).specs) == SCENARIOS[name].generate()

    def test_chaos_record_regenerates(self, model):
        payload = bench_chaos.record_payload(model)
        assert payload == committed("BENCH_chaos.json")
        sim, brown = payload["sim"], payload["brownout"]
        assert sim["byte_identical"], "fault-aware simulation is not deterministic"
        assert sim["lost"] == 0
        assert sum(sim["outcomes"].values()) == sim["requests"]
        # Degrade, don't fail: shedding sheddable traffic spares critical traffic.
        assert (
            brown["brownout"]["critical_miss_rate"]
            < brown["baseline"]["critical_miss_rate"]
        )

    @pytest.mark.slow
    def test_tuning_record_regenerates(self, model):
        payload = bench_tuning.record_payload(model)
        assert payload == committed("BENCH_tuning.json")
        tuning, chaos = payload["tuning"], payload["chaos"]
        assert tuning["byte_identical"], "two tune() runs wrote different artifacts"
        for name in bench_tuning.MUST_BEAT:
            row = tuning["scenarios"][name]
            assert row["tuned_miss_rate"] < row["default_miss_rate"], name
        # The emitted config is the winner's mapping over the defaults.
        config = tuning["config"]
        default = SchedulerConfig().to_mapping()
        assert config == {**default, **tuning["winner_mapping"]}
        # Tuned under chaos: beats the default with the live fault plane on.
        assert chaos["tuned_miss_rate"] < chaos["default_miss_rate"]
        assert chaos["supervise"] and chaos["retry"]


class TestSmokeRegistry:
    """run_smokes.SMOKES and the scripts on disk name the same smokes."""

    def test_every_smoke_names_a_script(self):
        for name in run_smokes.SMOKES:
            assert (ROOT / "benchmarks" / f"bench_{name}.py").is_file(), name

    def test_every_script_with_a_smoke_is_registered(self):
        with_smoke = {
            path.stem[len("bench_"):]
            for path in (ROOT / "benchmarks").glob("bench_*.py")
            if '"--smoke"' in path.read_text()
        }
        assert with_smoke == set(run_smokes.SMOKES)
        assert "paper" not in with_smoke  # its full run is its own CI step


class TestSchedulerBeatsFixedWidest:
    """The control plane's headline fact, deterministic in virtual time."""

    def test_on_the_steady_burst_kill_incident(self, model):
        report = bench_scheduler.run_scheduler_comparison(model, mode="sim")
        comp = report["comparison"]
        assert comp["miss_rate_scheduler"] < comp["miss_rate_fixed_widest"]
        assert comp["goodput_ratio"] >= 1.0
        assert comp["scheduler_lost"] == 0 and report["fixed_widest"]["lost"] == 0
        # The two sides describe the same trace.
        assert (
            report["fixed_widest"]["requests"]
            == report["scheduler"]["requests"]
            == report["arrivals"]
        )
        assert set(report["fixed_widest"]["widths"]) == {"lower100"}
        assert bench_scheduler.beats_fixed_widest(report)
