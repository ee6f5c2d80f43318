"""Width policy and its service model: FLOP ordering, the NNLS fit, the
simulator's table, deadline fit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.cost import subnet_flops, subnet_num_layers
from repro.device.profiles import jetson_nx_master
from repro.nn.plan import compile_width_plans
from repro.scheduler.width_policy import ServiceModel, WidthPolicy
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.trace.replay import SIM_AMORTIZE, SIM_NARROWEST_ROW_S, sim_coefficients
from repro.utils.rng import make_rng

#: Per-image FLOPs of four made-up widths (features 1/16, 1/4, 9/16, 1).
FLOPS = {"w1": 100.0, "w2": 400.0, "w3": 900.0, "w4": 1600.0}

#: 1 ms plus 3 ms per widest-width FLOP share, per batch (lower25..100 at
#: one row: 1.29 / 1.88 / 2.79 / 4.00 ms).
COEF = (0.001, 0.0, 0.003, 0.0)


@pytest.fixture(scope="module")
def net():
    return SlimmableConvNet(paper_width_spec(), rng=make_rng(0))


@pytest.fixture
def policy(net):
    return WidthPolicy(net, net.width_spec.lower_family(), coef=COEF)


def exact(coef, flops=FLOPS):
    """Noise-free seconds(width, rows) for known coefficients."""
    top = max(flops.values())

    def seconds(width, rows):
        f = flops[width] / top
        return coef[0] + coef[1] * rows + coef[2] * f + coef[3] * f * rows

    return seconds


class TestOrdering:
    def test_candidates_sorted_widest_first(self, policy):
        assert [s.name for s in policy.candidates] == [
            "lower100", "lower75", "lower50", "lower25",
        ]

    def test_unknown_width_raises(self, policy):
        with pytest.raises(KeyError):
            policy.model.seconds("nope", 1)
        with pytest.raises(KeyError):
            policy.observe("nope", 0.1)

    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf")])
    def test_a_negative_or_non_finite_observation_raises(self, policy, seconds):
        with pytest.raises(ValueError):
            policy.observe("lower100", seconds)

    def test_negative_coefficients_are_refused(self):
        with pytest.raises(ValueError):
            ServiceModel(FLOPS, (0.001, -1e-9, 0.0, 0.0))


class TestServiceModel:
    def test_an_unobserved_model_predicts_zero(self):
        model = ServiceModel(FLOPS)
        assert all(model.seconds(w, rows) == 0.0 for w in FLOPS for rows in (1, 16))

    def test_one_row_count_is_scaled_linearly_in_rows(self):
        """The boot primes are 1-row runs: until another row count is timed,
        n rows are predicted as n times one (no amortisation assumed)."""
        model = ServiceModel(FLOPS)
        one_row = exact((0.002, 0.0, 0.006, 0.0))
        for width in FLOPS:
            model.observe(width, 1, one_row(width, 1))
        for width in FLOPS:
            for rows in (1, 4, 16):
                assert model.seconds(width, rows) == pytest.approx(
                    rows * one_row(width, 1), rel=1e-6
                )

    @pytest.mark.parametrize(
        "coef",
        [(1e-4, 5e-5, 2e-4, 1e-4), (1e-4, 0.0, 2e-4, 1e-4), (0.0, 3e-5, 0.0, 1.2e-4)],
        ids=["all-positive", "no-per-row-constant", "per-row-only"],
    )
    def test_noise_free_observations_recover_known_coefficients(self, coef):
        model = ServiceModel(FLOPS)
        seconds = exact(coef)
        for rows in (1, 2, 4, 8, 16):
            for width in FLOPS:
                model.observe(width, rows, seconds(width, rows))
        assert model.coef == pytest.approx(coef, rel=1e-5, abs=1e-10)

    def test_old_observations_are_forgotten(self):
        """The box got twice as slow: a few hundred batches later the fit
        follows it."""
        model = ServiceModel(FLOPS)
        before, after = exact((1e-4, 5e-5, 2e-4, 1e-4)), exact((2e-4, 1e-4, 4e-4, 2e-4))
        for seconds in (before, after):
            for _ in range(100):
                for rows in (1, 16):
                    for width in FLOPS:
                        model.observe(width, rows, seconds(width, rows))
        assert model.seconds("w4", 16) == pytest.approx(after("w4", 16), rel=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(FLOPS)),
                st.integers(min_value=1, max_value=16),
                st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=10.0)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_any_stream_keeps_the_fit_non_negative_and_monotone(self, stream):
        model = ServiceModel(FLOPS)
        by_flops = sorted(FLOPS, key=FLOPS.get)
        for width, rows, seconds in stream:
            model.observe(width, rows, seconds)
            assert min(model.coef) >= 0
            for w in by_flops:
                column = [model.seconds(w, n) for n in range(1, 17)]
                assert column == sorted(column)
            for n in (1, 7, 16):
                row = [model.seconds(w, n) for w in by_flops]
                assert row == sorted(row)

    def test_the_simulators_table_is_reproduced(self, net):
        """The sim's analytical table, restated as the model's coefficients."""
        candidates = net.width_spec.lower_family()
        policy = WidthPolicy(net, candidates, coef=sim_coefficients(net, candidates))
        profile, layers = jetson_nx_master(), subnet_num_layers(net)
        cost = {s.name: profile.compute_time(subnet_flops(net, s), layers) for s in candidates}
        anchor = min(cost.values())
        for width, c in cost.items():
            row_s = SIM_NARROWEST_ROW_S * c / anchor
            for rows in range(1, 17):
                table = row_s * (1.0 + SIM_AMORTIZE * (rows - 1))
                assert policy.model.seconds(width, rows) == pytest.approx(table, rel=1e-12)

    def test_the_benchmark_harness_calls(self, net):
        """``benchmarks/e2e`` builds a policy from plan FLOPs, observes each
        width at 1 ms and times ``choose`` at its 10 s deadline."""
        widths = net.width_spec.lower_family()
        plans = compile_width_plans(net, widths, batch_rows=16)
        policy = WidthPolicy(net, widths, plan_flops={w: p.flops_per_image() for w, p in plans.items()})
        for spec in widths:
            policy.observe(spec.name, 1e-3)
        spec, predicted = policy.choose(10.0)
        assert spec.name == policy.candidates[0].name == widths[-1].name
        assert predicted == pytest.approx(1e-3)


class TestChoose:
    def test_picks_widest_that_fits(self, policy):
        spec, predicted = policy.choose(0.0025)
        assert spec.name == "lower50"
        assert predicted == policy.model.seconds("lower50", 1)

    def test_more_rows_need_a_narrower_width(self, policy):
        policy.observe("lower100", 0.004)
        policy.observe("lower100", 0.016, rows=8)  # a second row count: full fit
        assert policy.choose(0.006)[0].name == "lower100"
        assert policy.choose(0.006, rows=8)[0].name != "lower100"

    def test_huge_budget_picks_widest(self, policy):
        spec, _ = policy.choose(1e9)
        assert spec.name == "lower100"

    def test_impossible_budget_falls_back_to_narrowest(self, policy):
        spec, predicted = policy.choose(0.001)
        assert spec.name == "lower25"
        assert predicted == policy.model.seconds("lower25", 1)  # honest, though over budget

    def test_respects_min_and_max_width(self, policy):
        spec, _ = policy.choose(1e9, max_width="lower75")
        assert spec.name == "lower75"
        spec, _ = policy.choose(0.001, min_width="lower50")
        assert spec.name == "lower50"

    def test_min_wider_than_max_raises(self, policy):
        with pytest.raises(ValueError):
            policy.allowed(min_width="lower100", max_width="lower25")


class TestNeighbours:
    def test_narrower_than(self, policy):
        assert policy.narrower_than("lower100").name == "lower75"
        assert policy.narrower_than("lower25") is None

    def test_narrower_than_respects_floor(self, policy):
        assert policy.narrower_than("lower50", min_width="lower50") is None

    def test_narrowest(self, policy):
        assert policy.narrowest().name == "lower25"
        assert policy.narrowest(min_width="lower75").name == "lower75"


def test_empty_candidates_rejected(net):
    with pytest.raises(ValueError):
        WidthPolicy(net, [])
