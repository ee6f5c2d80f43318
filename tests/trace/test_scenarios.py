"""Scenario zoo: determinism, stream shape, per-generator characteristics."""

import pytest

from repro.scheduler.admission import CRITICAL_PRIORITY
from repro.trace.scenarios import (
    EXTRA_SCENARIOS,
    GENERATORS,
    SCENARIOS,
    TraceSpec,
    get_scenario,
)

#: The pinned five plus the registered steady/burst/steady variant.
ZOO = {**SCENARIOS, "steady_burst": EXTRA_SCENARIOS["steady_burst"]}


class TestZoo:
    def test_zoo_covers_the_advertised_shapes(self):
        assert set(SCENARIOS) == {
            "diurnal", "heavy_tail", "bursts", "adversarial", "multi_tenant",
        }
        # One generator per shape; steady_burst is registered, not pinned
        # (no committed corpus file, outside the tuner's validation zoo).
        assert set(GENERATORS) == set(ZOO)
        assert get_scenario("steady_burst") is ZOO["steady_burst"]

    def test_get_scenario_rejects_unknown(self):
        with pytest.raises(KeyError):
            get_scenario("black_friday")

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            TraceSpec(name="x", generator="nope")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec(name="x", generator="diurnal", duration_s=0.0)


class TestGeneratedStreams:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_generation_is_deterministic(self, name):
        spec = ZOO[name]
        assert spec.generate() == spec.generate()

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_stream_is_well_formed(self, name):
        spec = ZOO[name]
        stream = spec.generate()
        assert stream, f"{name} generated no requests"
        assert [s.request_id for s in stream] == list(range(len(stream)))
        arrivals = [s.arrival_s for s in stream]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= t < spec.duration_s for t in arrivals)
        assert all(s.deadline_s > 0 for s in stream)
        assert len({s.payload_seed for s in stream}) == len(stream)

    def test_different_seed_different_stream(self):
        base = SCENARIOS["bursts"]
        reseeded = TraceSpec(
            name=base.name, generator=base.generator, seed=base.seed + 1,
            duration_s=base.duration_s, params=base.params,
        )
        assert reseeded.generate() != base.generate()


class TestShapeCharacteristics:
    def test_heavy_tail_has_sessions_of_very_different_length(self):
        """Pareto session lengths: some back-to-back runs dwarf the median."""
        stream = SCENARIOS["heavy_tail"].generate()
        gaps = [
            b.arrival_s - a.arrival_s for a, b in zip(stream, stream[1:])
        ]
        tight = sum(1 for g in gaps if g < 0.008)  # intra-session spacing
        assert tight > len(gaps) * 0.2

    def test_adversarial_mixes_deadline_extremes_and_pins_widths(self):
        stream = SCENARIOS["adversarial"].generate()
        deadlines = {s.deadline_s for s in stream}
        assert min(deadlines) < 0.01 < max(deadlines)
        pinned = [s for s in stream if s.min_width is not None]
        assert pinned and all(s.min_width == "lower75" for s in pinned)

    def test_multi_tenant_blends_priorities_and_tenants(self):
        stream = SCENARIOS["multi_tenant"].generate()
        tenants = {s.tenant for s in stream}
        assert tenants == {"bulk", "interactive", "critical"}
        critical = [s for s in stream if s.tenant == "critical"]
        assert critical
        assert all(s.priority == CRITICAL_PRIORITY for s in critical)
        assert all(
            s.priority == 0 for s in stream if s.tenant != "critical"
        )

    def test_diurnal_rate_follows_the_wave(self):
        """More arrivals near the peak than near the trough."""
        spec = SCENARIOS["diurnal"]
        stream = spec.generate()
        bins = [0] * 12
        for s in stream:
            bins[min(int(s.arrival_s / spec.duration_s * 12), 11)] += 1
        assert max(bins) > 2 * (min(bins) + 1)

    def test_bursts_cluster_tightly(self):
        stream = SCENARIOS["bursts"].generate()
        gaps = [b.arrival_s - a.arrival_s for a, b in zip(stream, stream[1:])]
        clustered = sum(1 for g in gaps if g < 0.002)
        assert clustered > len(gaps) * 0.25

    def test_steady_burst_has_three_phases(self):
        """Steady, an overload burst several times the base rate, steady."""
        spec = ZOO["steady_burst"]
        third = spec.duration_s / 3
        counts = [0, 0, 0]
        for s in spec.generate():
            counts[min(int(s.arrival_s / third), 2)] += 1
        pre, burst, post = counts
        assert burst > 4 * pre and burst > 4 * post
        assert pre > 0 and post > 0

    def test_steady_burst_phase_rates_are_parameters(self):
        spec = ZOO["steady_burst"]
        calm = TraceSpec(
            "calm", "steady_burst", seed=spec.seed, duration_s=spec.duration_s,
            params={"burst_rps": 300.0},
        )
        assert len(calm.generate()) < len(spec.generate()) / 2


class TestMeta:
    def test_meta_names_the_generator_and_seed(self):
        for name, spec in SCENARIOS.items():
            meta = spec.meta()
            assert meta["name"] == name
            assert meta["generator"] == spec.generator
            assert meta["seed"] == spec.seed
            assert meta["duration_s"] == spec.duration_s
