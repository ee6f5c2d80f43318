"""Tests for the calibration module (paper targets vs emulated testbed)."""

import pytest

from repro.experiments.calibration import PAPER_FIG2, calibration_points


class TestPaperReference:
    def test_reference_table_complete(self):
        families = {key[0] for key in PAPER_FIG2}
        scenarios = {key[1] for key in PAPER_FIG2}
        assert families == {"static", "dynamic", "fluid"}
        assert scenarios == {"master_and_worker", "only_master", "only_worker"}
        assert len(PAPER_FIG2) == 11  # every bar in Fig. 2

    def test_paper_internal_consistency(self):
        """The paper's HT number equals its two solo numbers summed."""
        ht = PAPER_FIG2[("fluid", "master_and_worker", "HT")][0]
        solo_m = PAPER_FIG2[("fluid", "only_master", "solo")][0]
        solo_w = PAPER_FIG2[("fluid", "only_worker", "solo")][0]
        assert ht == pytest.approx(solo_m + solo_w)


class TestCalibration:
    def test_all_points_within_half_percent(self, paper_net):
        for point in calibration_points(paper_net).values():
            assert point.relative_error < 0.005, point

    def test_detects_drift(self, paper_net, monkeypatch):
        from repro.device.profiles import DeviceProfile
        from repro.experiments import calibration

        slow = DeviceProfile("master", 1e6, 0.01, 7600)
        monkeypatch.setattr(calibration, "jetson_nx_master", lambda: slow)
        points = calibration_points(paper_net)
        assert points["solo_master_50"].relative_error > 0.05
