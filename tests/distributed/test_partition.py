"""Tests for width partitioning and weight residency."""

import pytest

from repro.distributed import MASTER, WORKER, WidthPartition
from repro.slimmable import paper_width_spec


@pytest.fixture
def partition():
    return WidthPartition.at_spec_split(paper_width_spec())


class TestDeviceSlices:
    def test_master_gets_lower_rows(self, partition):
        s = partition.device_slice(MASTER)
        assert (s.start, s.stop) == (0, 8)

    def test_worker_gets_upper_rows(self, partition):
        s = partition.device_slice(WORKER)
        assert (s.start, s.stop) == (8, 16)

    def test_unknown_role(self, partition):
        with pytest.raises(ValueError):
            partition.device_slice("bystander")

    def test_split_bounds(self):
        with pytest.raises(ValueError):
            WidthPartition(paper_width_spec(), 0)
        with pytest.raises(ValueError):
            WidthPartition(paper_width_spec(), 16)


class TestResidency:
    def test_master_residency(self, partition):
        names = [s.name for s in partition.resident_specs(MASTER)]
        assert names == ["lower25", "lower50"]

    def test_worker_residency(self, partition):
        names = [s.name for s in partition.resident_specs(WORKER)]
        assert names == ["upper25", "upper50"]

class TestSurvivorOptions:
    """The reliability story of Fig. 1b/1c, expressed as residency x certification."""

    def test_static_has_no_survivors(self, partition):
        # Static DNN certifies nothing standalone.
        assert partition.survivor_options(MASTER, ()) == []
        assert partition.survivor_options(WORKER, ()) == []

    def test_dynamic_master_survives_worker_does_not(self, partition):
        dynamic_certified = ("lower25", "lower50", "lower75", "lower100")
        master_names = [s.name for s in partition.survivor_options(MASTER, dynamic_certified)]
        assert master_names == ["lower25", "lower50"]
        assert partition.survivor_options(WORKER, dynamic_certified) == []

    def test_fluid_both_survive(self, partition):
        fluid_certified = (
            "lower25", "lower50", "lower75", "lower100", "upper25", "upper50",
        )
        assert [s.name for s in partition.survivor_options(MASTER, fluid_certified)] == [
            "lower25",
            "lower50",
        ]
        assert [s.name for s in partition.survivor_options(WORKER, fluid_certified)] == [
            "upper25",
            "upper50",
        ]

    def test_uneven_split_changes_residency(self):
        partition = WidthPartition(paper_width_spec(), 12)
        master_names = [s.name for s in partition.resident_specs(MASTER)]
        assert "lower75" in master_names
        # Worker rows [12,16) hold no named sub-network (upper specs start at 8).
        assert partition.resident_specs(WORKER) == []
