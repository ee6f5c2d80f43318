"""Tests for the emulated edge device."""

import numpy as np
import pytest

from repro.device.emulated import CrashCounter, DeviceFailed, EmulatedDevice
from repro.device.profiles import jetson_nx_master
from repro.utils.rng import make_rng


@pytest.fixture
def device(paper_net):
    return EmulatedDevice(jetson_nx_master(), paper_net)


class TestExecution:
    def test_execute_returns_logits(self, device, rng):
        spec = device.net.width_spec.find("lower50")
        x = rng.standard_normal((3, 1, 28, 28))
        logits = device.execute_subnet(spec, x)
        assert logits.shape == (3, 10)

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
