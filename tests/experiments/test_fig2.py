"""Tests for the Fig. 2 harness, on the tiny models' paper record
(throughput bars are exact; accuracy bars use the tiny session-trained
models, so only coarse bounds are asserted — the record's recipe and its
claims are tested in test_paper.py)."""

import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.plan import failed_plan, ht_plan
from repro.experiments.fig2 import plan_accuracy
from repro.experiments.paper import fig2_facts


def thr(record: dict, key: str) -> float:
    return record["analytic"]["fig2_throughput_ips"][key]["reproduced"]


def acc(record: dict, key: str) -> float:
    return record["trained"]["fig2"]["accuracy_pct"][key]["reproduced"]


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
    def test_cell(self, tiny_record, family, scenario, mode, expected):
        key = f"{family}/{scenario}/{mode}"
        assert thr(tiny_record, key) == pytest.approx(expected, rel=0.005)

    def test_speedup_ratios(self, tiny_record):
        ht = thr(tiny_record, "fluid/master_and_worker/HT")
        assert ht / thr(tiny_record, "static/master_and_worker/HA") == pytest.approx(2.5, rel=0.05)
        assert ht / thr(tiny_record, "dynamic/master_and_worker/HT") == pytest.approx(
            2.0, rel=0.05
        )


class TestAccuracyCells:
    def test_failed_cells_zero_accuracy(self, tiny_record):
        assert acc(tiny_record, "static/only_master/failed") == 0.0
        assert acc(tiny_record, "dynamic/only_worker/failed") == 0.0

    def test_surviving_cells_beat_chance(self, tiny_record):
        for key in [
            "static/master_and_worker/HA",
            "dynamic/only_master/solo",
            "fluid/only_master/solo",
            "fluid/only_worker/solo",
            "fluid/master_and_worker/HT",
        ]:
            assert acc(tiny_record, key) > 40.0

    def test_fluid_ht_is_mixture_of_halves(self, tiny_record, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["fluid"]
        lo = 100 * model.evaluate("lower50", test)
        hi = 100 * model.evaluate("upper50", test)
        ht = acc(tiny_record, "fluid/master_and_worker/HT")
        assert min(lo, hi) - 1e-9 <= ht <= max(lo, hi) + 1e-9


class TestPlanAccuracyFunction:
    def test_failed_plan(self, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["fluid"]
        tm = SystemThroughputModel(
            model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        assert plan_accuracy(model, failed_plan("x"), model.evaluate_all(test), tm) == 0.0

    def test_ht_weighting_uses_rates(self, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["fluid"]
        tm = SystemThroughputModel(
            model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        acc = plan_accuracy(model, ht_plan("lower50", "upper50"), model.evaluate_all(test), tm)
        r_m = 1.0 / tm.standalone_latency("master", model.spec("lower50"))
        r_w = 1.0 / tm.standalone_latency("worker", model.spec("upper50"))
        expected = (
            r_m * 100 * model.evaluate("lower50", test)
            + r_w * 100 * model.evaluate("upper50", test)
        ) / (r_m + r_w)
        assert acc == pytest.approx(expected)


class TestLookup:
    def test_missing_family_rejected(self, trained_models, tiny_data):
        _, test = tiny_data
        partial = {"static": trained_models["static"]}
        with pytest.raises(KeyError):
            fig2_facts(partial, test)

    def test_missing_cell_lookup_raises(self, tiny_record):
        with pytest.raises(KeyError):
            acc(tiny_record, "fluid/nowhere/HT")
