"""Tests for device profiles and the latency model."""

import pytest

from repro.device.profiles import DeviceProfile, jetson_nx_master, jetson_nx_worker


class TestDeviceProfile:
    def test_compute_time_formula(self):
        p = DeviceProfile("d", flops_per_sec=1e6, layer_overhead_s=0.01, memory_capacity_params=100)
        assert p.compute_time(1e6, 4) == pytest.approx(1.0 + 0.04)

    def test_zero_flops_gives_overhead_only(self):
        p = DeviceProfile("d", 1e6, 0.01, 100)
        assert p.compute_time(0, 3) == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("d", 0, 0.01, 100)
        with pytest.raises(ValueError):
            DeviceProfile("d", 1e6, -0.1, 100)
        with pytest.raises(ValueError):
            DeviceProfile("d", 1e6, 0.1, 0)
        p = DeviceProfile("d", 1e6, 0.1, 10)
        with pytest.raises(ValueError):
            p.compute_time(-1, 0)

    def test_scaled(self):
        p = DeviceProfile("d", 1e6, 0.02, 100)
        fast = p.scaled(2.0)
        assert fast.flops_per_sec == 2e6
        assert fast.layer_overhead_s == 0.01
        # Scaling halves every latency.
        assert fast.compute_time(1e6, 4) == pytest.approx(p.compute_time(1e6, 4) / 2)


class TestCalibratedProfiles:
    def test_paper_lone_master_operating_point(self):
        # Lone 50% model: 402,976 FLOP over 4 layers -> 14.4 image/s.
        t = jetson_nx_master().compute_time(402976, 4)
        assert 1.0 / t == pytest.approx(14.4, rel=0.005)

    def test_paper_lone_worker_operating_point(self):
        t = jetson_nx_worker().compute_time(402976, 4)
        assert 1.0 / t == pytest.approx(13.9, rel=0.005)

    def test_capacity_excludes_full_model(self):
        # The paper's premise: a single device cannot host the 100% model
        # (12,650 parameters) but can host the 50% one (5,178).
        for profile in (jetson_nx_master(), jetson_nx_worker()):
            assert profile.memory_capacity_params < 12650
            assert profile.memory_capacity_params > 5178
