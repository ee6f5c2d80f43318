"""Tests for the emulated edge device."""

import numpy as np
import pytest

from repro.device import CrashCounter, DeviceFailed, EmulatedDevice, jetson_nx_master
from repro.utils import make_rng


@pytest.fixture
def device(paper_net):
    return EmulatedDevice(jetson_nx_master(), paper_net)


class TestExecution:
    def test_execute_returns_logits(self, device, rng):
        spec = device.net.width_spec.find("lower50")
        x = rng.standard_normal((3, 1, 28, 28))
        logits = device.execute_subnet(spec, x)
        assert logits.shape == (3, 10)
        assert device.requests_served == 1

    def test_busy_time_accumulates(self, device, rng):
        spec = device.net.width_spec.find("lower50")
        x = rng.standard_normal((2, 1, 28, 28))
        device.execute_subnet(spec, x)
        first = device.busy_time_s
        assert first > 0
        device.execute_subnet(spec, x)
        assert device.busy_time_s == pytest.approx(2 * first)

    def test_estimated_latency_matches_profile(self, device):
        spec = device.net.width_spec.find("lower50")
        assert 1.0 / device.estimated_latency(spec) == pytest.approx(14.4, rel=0.005)

    def test_execution_matches_direct_view(self, device, rng):
        spec = device.net.width_spec.find("upper50")
        x = rng.standard_normal((2, 1, 28, 28))
        view = device.net.view(spec)
        view.train(False)
        np.testing.assert_array_equal(device.execute_subnet(spec, x), view(x))


class TestFailures:
    def test_crashed_device_refuses_work(self, device, rng):
        device.crash()
        spec = device.net.width_spec.find("lower50")
        with pytest.raises(DeviceFailed):
            device.execute_subnet(spec, rng.standard_normal((1, 1, 28, 28)))

    def test_recover(self, device, rng):
        device.crash()
        device.recover()
        spec = device.net.width_spec.find("lower50")
        device.execute_subnet(spec, rng.standard_normal((1, 1, 28, 28)))

    def test_never_crashes_without_a_crash_counter(self, device, rng):
        spec = device.net.width_spec.find("lower25")
        x = rng.standard_normal((1, 1, 28, 28))
        for _ in range(20):
            device.execute_subnet(spec, x)
        assert device.alive

    def test_crash_counter_mid_stream(self, paper_net, rng):
        device = EmulatedDevice(
            jetson_nx_master(), paper_net, crash_counter=CrashCounter(1)
        )
        spec = device.net.width_spec.find("lower25")
        x = rng.standard_normal((1, 1, 28, 28))
        device.execute_subnet(spec, x)
        with pytest.raises(DeviceFailed):
            device.execute_subnet(spec, x)
        assert not device.alive
