"""Tests for deployment plans."""

import pytest

from repro.engine.modes import ExecutionMode
from repro.engine.plan import (
    Assignment,
    DeploymentPlan,
    failed_plan,
    ha_plan,
    ht_plan,
    partitioned_plan,
    solo_plan,
    streams_plan,
)


class TestDeploymentPlan:
    def test_duplicate_device_rejected(self):
        with pytest.raises(ValueError):
            DeploymentPlan(
                mode=ExecutionMode.HIGH_THROUGHPUT,
                assignments=(
                    Assignment("master", "lower50"),
                    Assignment("master", "lower25"),
                ),
            )

    def test_ha_requires_combined_name(self):
        with pytest.raises(ValueError):
            DeploymentPlan(mode=ExecutionMode.HIGH_ACCURACY)

    def test_failed_cannot_carry_assignments(self):
        with pytest.raises(ValueError):
            DeploymentPlan(
                mode=ExecutionMode.FAILED,
                assignments=(Assignment("master", "lower50"),),
            )

    def test_assignment_lookup(self):
        plan = ht_plan("lower50", "upper50")
        assert plan.devices() == ["master", "worker"]


class TestFactories:
    def test_solo(self):
        plan = solo_plan("worker", "upper50")
        assert plan.mode is ExecutionMode.SOLO
        assert plan.describe() == "solo worker:upper50[standalone]"

    def test_ha(self):
        plan = ha_plan("lower100")
        assert plan.mode is ExecutionMode.HIGH_ACCURACY
        assert plan.combined_subnet == "lower100"
        assert plan.describe() == (
            "HA master:lower100[partition_lower] + worker:lower100[partition_upper] -> lower100"
        )

    def test_partitioned_over_more_devices(self):
        """The first device holds the lowest block; every other an upper one."""
        plan = partitioned_plan(["dev0", "dev1", "dev2"], "combined")
        assert plan.describe() == (
            "HA dev0:combined[partition_lower] + dev1:combined[partition_upper]"
            " + dev2:combined[partition_upper] -> combined"
        )

    def test_streams_over_more_devices(self):
        plan = streams_plan([("dev0", "block0"), ("dev1", "block1"), ("dev2", "block2")])
        assert plan.mode is ExecutionMode.HIGH_THROUGHPUT
        assert plan.describe() == (
            "HT dev0:block0[standalone] + dev1:block1[standalone] + dev2:block2[standalone]"
        )

    def test_partitioned_needs_two_devices(self):
        with pytest.raises(ValueError):
            partitioned_plan(["dev0"], "combined")

    def test_failed(self):
        plan = failed_plan("because")
        assert plan.mode is ExecutionMode.FAILED
        assert "because" in plan.describe()

    def test_describe_readable(self):
        text = ht_plan("lower50", "upper50").describe()
        assert text == "HT master:lower50[standalone] + worker:upper50[standalone]"
