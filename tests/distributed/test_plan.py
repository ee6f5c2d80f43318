"""Tests for deployment plans."""

import pytest

from repro.distributed import (
    Assignment,
    DeploymentPlan,
    ExecutionMode,
    failed_plan,
    ha_plan,
    ht_plan,
    solo_plan,
)


class TestAssignment:
    def test_invalid_role_rejected(self):
        with pytest.raises(ValueError):
            Assignment("master", "lower50", "juggler")


class TestDeploymentPlan:
    def test_duplicate_device_rejected(self):
        with pytest.raises(ValueError):
            DeploymentPlan(
                mode=ExecutionMode.HIGH_THROUGHPUT,
                assignments=(
                    Assignment("master", "lower50", "standalone"),
                    Assignment("master", "lower25", "standalone"),
                ),
            )

    def test_ha_requires_combined_name(self):
        with pytest.raises(ValueError):
            DeploymentPlan(mode=ExecutionMode.HIGH_ACCURACY)

    def test_failed_cannot_carry_assignments(self):
        with pytest.raises(ValueError):
            DeploymentPlan(
                mode=ExecutionMode.FAILED,
                assignments=(Assignment("master", "lower50", "standalone"),),
            )

    def test_assignment_lookup(self):
        plan = ht_plan("lower50", "upper50")
        assert plan.devices() == ["master", "worker"]


class TestFactories:
    def test_solo(self):
        plan = solo_plan("worker", "upper50")
        assert plan.mode is ExecutionMode.SOLO
        assert plan.assignments[0].role == "standalone"

    def test_ha(self):
        plan = ha_plan("lower100")
        assert plan.mode is ExecutionMode.HIGH_ACCURACY
        assert plan.combined_subnet == "lower100"
        roles = {a.device: a.role for a in plan.assignments}
        assert roles == {"master": "partition_lower", "worker": "partition_upper"}

    def test_failed(self):
        plan = failed_plan("because")
        assert plan.mode is ExecutionMode.FAILED
        assert "because" in plan.describe()

    def test_describe_readable(self):
        text = ht_plan("lower50", "upper50").describe()
        assert "HT" in text and "lower50" in text and "upper50" in text
