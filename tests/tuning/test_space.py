"""Search-space enumeration."""

from dataclasses import fields

import pytest

from repro.tuning.space import SearchSpace


class TestSearchSpace:
    def test_only_simulator_ranked_dimensions_are_searched(self):
        assert [f.name for f in fields(SearchSpace)] == [
            "replicas", "max_batch", "max_delay_s", "admission_headroom",
            "brownout_enter_depth",
        ]

    def test_coarse_candidates_cover_the_grid(self):
        space = SearchSpace.small()
        candidates = space.coarse_candidates()
        assert len(candidates) == (
            len(space.replicas)
            * len(space.max_batch)
            * len(space.max_delay_s)
            * len(space.admission_headroom)
            * len(space.brownout_enter_depth)
        )
        # Deterministic order: same space, same list.
        assert candidates == SearchSpace.small().coarse_candidates()

    def test_brownout_depth_expands_to_policy_keys(self):
        space = SearchSpace(brownout_enter_depth=(32,))
        for mapping in space.coarse_candidates():
            assert mapping["brownout"] is True
            assert mapping["brownout.enter_queue_depth"] == 32
            assert mapping["brownout.exit_queue_depth"] == 8

    def test_no_brownout_leaves_keys_absent(self):
        space = SearchSpace(brownout_enter_depth=(None,))
        for mapping in space.coarse_candidates():
            assert "brownout" not in mapping

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            SearchSpace(replicas=())

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(replicas=(0,))
        with pytest.raises(ValueError):
            SearchSpace(max_batch=(-1,))
        with pytest.raises(ValueError):
            SearchSpace(max_delay_s=(-0.001,))
