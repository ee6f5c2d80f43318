"""Tests for the Fig. 2 harness (throughput cells are exact; accuracy cells
use the tiny session-trained models, so only coarse bounds are asserted —
the full-fidelity run lives in benchmarks/bench_fig2_accuracy.py)."""

import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.plan import failed_plan, ht_plan
from repro.experiments.fig2 import plan_accuracy, run_fig2
from repro.experiments.report import format_fig2_table, format_shape_checks, shape_checks


@pytest.fixture(scope="module")
def fig2_result(trained_models, tiny_data):
    _, test = tiny_data
    return run_fig2(trained_models, test)


class TestThroughputCells:
    """Throughput does not depend on training, so cells must match the paper."""

    @pytest.mark.parametrize(
        "family,scenario,mode,expected",
        [
            ("static", "master_and_worker", "HA", 11.1),
            ("static", "only_master", "failed", 0.0),
            ("static", "only_worker", "failed", 0.0),
            ("dynamic", "master_and_worker", "HT", 14.4),
            ("dynamic", "master_and_worker", "HA", 11.1),
            ("dynamic", "only_master", "solo", 14.4),
            ("dynamic", "only_worker", "failed", 0.0),
            ("fluid", "master_and_worker", "HT", 28.3),
            ("fluid", "master_and_worker", "HA", 11.1),
            ("fluid", "only_master", "solo", 14.4),
            ("fluid", "only_worker", "solo", 13.9),
        ],
    )
    def test_cell(self, fig2_result, family, scenario, mode, expected):
        cell = fig2_result.get(family, scenario, mode)
        assert cell.throughput_ips == pytest.approx(expected, rel=0.005)

    def test_speedup_ratios(self, fig2_result):
        assert fig2_result.ht_speedup_vs_static() == pytest.approx(2.5, rel=0.05)
        assert fig2_result.ht_speedup_vs_dynamic() == pytest.approx(2.0, rel=0.05)


class TestAccuracyCells:
    def test_failed_cells_zero_accuracy(self, fig2_result):
        assert fig2_result.get("static", "only_master", "failed").accuracy_pct == 0.0
        assert fig2_result.get("dynamic", "only_worker", "failed").accuracy_pct == 0.0

    def test_surviving_cells_beat_chance(self, fig2_result):
        for family, scenario, mode in [
            ("static", "master_and_worker", "HA"),
            ("dynamic", "only_master", "solo"),
            ("fluid", "only_master", "solo"),
            ("fluid", "only_worker", "solo"),
            ("fluid", "master_and_worker", "HT"),
        ]:
            assert fig2_result.get(family, scenario, mode).accuracy_pct > 40.0

    def test_fluid_ht_is_mixture_of_halves(self, fig2_result, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["fluid"]
        lo = 100 * model.evaluate("lower50", test)
        hi = 100 * model.evaluate("upper50", test)
        ht = fig2_result.get("fluid", "master_and_worker", "HT").accuracy_pct
        assert min(lo, hi) - 1e-9 <= ht <= max(lo, hi) + 1e-9


class TestPlanAccuracyFunction:
    def test_failed_plan(self, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["fluid"]
        tm = SystemThroughputModel(
            model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        assert plan_accuracy(model, failed_plan("x"), test, tm) == 0.0

    def test_ht_weighting_uses_rates(self, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["fluid"]
        tm = SystemThroughputModel(
            model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        acc = plan_accuracy(model, ht_plan("lower50", "upper50"), test, tm)
        r_m = 1.0 / tm.standalone_latency("master", model.spec("lower50"))
        r_w = 1.0 / tm.standalone_latency("worker", model.spec("upper50"))
        expected = (
            r_m * 100 * model.evaluate("lower50", test)
            + r_w * 100 * model.evaluate("upper50", test)
        ) / (r_m + r_w)
        assert acc == pytest.approx(expected)


class TestReporting:
    def test_table_renders(self, fig2_result):
        table = format_fig2_table(fig2_result)
        assert "fluid" in table and "28.3" in table and "paper" in table

    def test_shape_checks_run(self, fig2_result):
        checks = shape_checks(fig2_result)
        names = [c.name for c in checks]
        assert len(names) == len(set(names))
        text = format_shape_checks(checks)
        assert "static fails" in text
        # Reliability + throughput-ratio checks must pass even with tiny
        # training; accuracy-level checks are exercised in the benchmark.
        for check in checks[:6]:
            assert check.passed, check

    def test_missing_family_rejected(self, trained_models, tiny_data):
        _, test = tiny_data
        partial = {"static": trained_models["static"]}
        with pytest.raises(KeyError):
            run_fig2(partial, test)
