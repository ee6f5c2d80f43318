"""Width policy: cost-model ordering, EWMA calibration, deadline fit."""

import pytest

from repro.scheduler.width_policy import WidthPolicy
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import paper_width_spec
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def net():
    return SlimmableConvNet(paper_width_spec(), rng=make_rng(0))


@pytest.fixture
def policy(net):
    return WidthPolicy(net, net.width_spec.lower_family())


class TestOrderingAndPrediction:
    def test_candidates_sorted_widest_first(self, policy):
        assert [s.name for s in policy.candidates] == [
            "lower100", "lower75", "lower50", "lower25",
        ]

    def test_model_costs_decrease_with_width(self, policy):
        predictions = [policy.predict(s.name) for s in policy.candidates]
        assert predictions == sorted(predictions, reverse=True)
        assert predictions[-1] > 0

    def test_observation_overrides_model(self, policy):
        policy.observe("lower100", 0.123)
        assert policy.predict("lower100") == pytest.approx(0.123)

    def test_calibration_transfers_to_unobserved_widths(self, policy):
        """Observing one width rescales the model cost of the others."""
        base_full = policy.predict("lower100")
        base_quarter = policy.predict("lower25")
        policy.observe("lower100", base_full * 10.0)  # this process is 10x slower
        assert policy.predict("lower25") == pytest.approx(base_quarter * 10.0)

    def test_unknown_width_raises(self, policy):
        with pytest.raises(KeyError):
            policy.predict("nope")
        with pytest.raises(KeyError):
            policy.observe("nope", 0.1)

    def test_negative_observation_raises(self, policy):
        with pytest.raises(ValueError):
            policy.observe("lower100", -1.0)


class TestChoose:
    def _calibrate(self, policy, times):
        for name, t in times.items():
            policy.observe(name, t)

    def test_picks_widest_that_fits(self, policy):
        self._calibrate(
            policy,
            {"lower100": 0.040, "lower75": 0.030, "lower50": 0.020, "lower25": 0.010},
        )
        spec, predicted = policy.choose(0.025)
        assert spec.name == "lower50"
        assert predicted == pytest.approx(0.020)

    def test_huge_budget_picks_widest(self, policy):
        spec, _ = policy.choose(1e9)
        assert spec.name == "lower100"

    def test_impossible_budget_falls_back_to_narrowest(self, policy):
        self._calibrate(policy, {"lower25": 0.010})
        spec, predicted = policy.choose(0.001)
        assert spec.name == "lower25"
        assert predicted == pytest.approx(0.010)  # honest, even though over budget

    def test_respects_min_and_max_width(self, policy):
        self._calibrate(
            policy,
            {"lower100": 0.040, "lower75": 0.030, "lower50": 0.020, "lower25": 0.010},
        )
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


class TestSnapshot:
    def test_calibration_snapshot_shape(self, policy):
        policy.observe("lower50", 0.02)
        snap = policy.calibration_snapshot()
        assert set(snap) == {"lower100", "lower75", "lower50", "lower25"}
        assert snap["lower50"]["observed_ewma_s"] == pytest.approx(0.02)
        assert snap["lower100"]["observed_ewma_s"] is None
        assert snap["lower100"]["predicted_s"] > 0


def test_empty_candidates_rejected(net):
    with pytest.raises(ValueError):
        WidthPolicy(net, [])
