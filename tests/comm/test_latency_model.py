"""Tests for the offline-measured communication latency model."""

import pytest

from repro.comm.latency_model import CommLatencyModel


class TestCommLatencyModel:
    def test_transfer_time_formula(self):
        model = CommLatencyModel(base_latency_s=0.001, bandwidth_bytes_per_s=1e6)
        assert model.transfer_time(1000) == pytest.approx(0.001 + 0.001)

    def test_zero_bytes_costs_base(self):
        model = CommLatencyModel(base_latency_s=0.002, bandwidth_bytes_per_s=1e6)
        assert model.transfer_time(0) == pytest.approx(0.002)

    def test_total_time(self):
        model = CommLatencyModel(base_latency_s=0.001, bandwidth_bytes_per_s=1e6)
        total = model.total_time([1000, 2000])
        assert total == pytest.approx(0.001 * 2 + 0.003)

    def test_calibrated_ha_exchange_cost(self):
        # The paper's per-image HA comm: exchanges of 6272/1568/1568/40 bytes
        # must cost ~6.54 ms (the lone-50% vs distributed-100% gap).
        model = CommLatencyModel()
        total = model.total_time([6272, 1568, 1568, 40])
        assert total == pytest.approx(0.006535, rel=0.01)

    def test_scaling_helpers(self):
        model = CommLatencyModel(base_latency_s=0.001, bandwidth_bytes_per_s=1e6)
        assert model.scaled_latency(0.5).base_latency_s == pytest.approx(0.0005)

    def test_validation(self):
        with pytest.raises(ValueError):
            CommLatencyModel(base_latency_s=-1)
        with pytest.raises(ValueError):
            CommLatencyModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            CommLatencyModel().transfer_time(-5)
