"""Tests for width partitioning and weight residency."""

import pytest

from repro.engine.graph import BlockPartition
from repro.slimmable.spec import paper_width_spec


@pytest.fixture
def partition():
    ws = paper_width_spec()
    return BlockPartition.two_way(ws.split, ws.max_width)


def _names(specs):
    return [s.name for s in specs]


class TestDeviceSlices:
    def test_master_gets_lower_rows(self, partition):
        s = partition.block_slice(0)
        assert (s.start, s.stop) == (0, 8)

    def test_worker_gets_upper_rows(self, partition):
        s = partition.block_slice(1)
        assert (s.start, s.stop) == (8, 16)

    def test_unknown_block(self, partition):
        with pytest.raises(ValueError):
            partition.resident_specs(2, paper_width_spec())

    def test_split_bounds(self):
        with pytest.raises(ValueError):
            BlockPartition.two_way(0, 16)
        with pytest.raises(ValueError):
            BlockPartition.two_way(16, 16)


class TestResidency:
    def test_master_residency(self, partition):
        assert _names(partition.resident_specs(0, paper_width_spec())) == ["lower25", "lower50"]

    def test_worker_residency(self, partition):
        assert _names(partition.resident_specs(1, paper_width_spec())) == ["upper25", "upper50"]

    def test_uneven_split_changes_residency(self):
        ws = paper_width_spec()
        partition = BlockPartition.two_way(12, ws.max_width)
        assert "lower75" in _names(partition.resident_specs(0, ws))
        # Worker rows [12,16) hold no named sub-network (upper specs start at 8).
        assert partition.resident_specs(1, ws) == []

    def test_four_blocks_residency(self):
        """Over four blocks of four rows, a quarter-width sub-network lives
        only where its rows start at a block boundary."""
        ws = paper_width_spec()
        partition = BlockPartition.even(4, ws.max_width)
        residency = [_names(partition.resident_specs(k, ws)) for k in range(4)]
        assert residency == [["lower25"], [], ["upper25"], []]
