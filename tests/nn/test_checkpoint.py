"""Tests for npz checkpoint I/O."""

import numpy as np
import pytest

from repro.nn import load_state, save_state
from repro.utils import make_rng


class TestStateIO:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = {"a": np.arange(6, dtype=float).reshape(2, 3), "b": np.ones(4)}
        save_state(path, state)
        loaded = load_state(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], state["a"])

    def test_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "ckpt.npz")
        save_state(path, {"x": np.zeros(2)})
        assert load_state(path)["x"].shape == (2,)

    def test_loaded_arrays_are_owned_copies(self, tmp_path):
        path = str(tmp_path / "c.npz")
        save_state(path, {"x": np.zeros(3)})
        loaded = load_state(path)
        loaded["x"][0] = 5  # must not raise (writable copy)
        assert loaded["x"][0] == 5


class TestPartialSlimmableLoad:
    """``load_state_dict`` of a checkpoint that names only some parameters."""

    def _net(self, seed):
        from repro.slimmable import SlimmableConvNet, paper_width_spec

        return SlimmableConvNet(paper_width_spec(), rng=make_rng(seed))

    def test_strict_load_rejects_partial_state(self, tmp_path):
        donor = self._net(6)
        path = str(tmp_path / "strict.npz")
        save_state(
            path,
            {k: v for k, v in donor.state_dict().items() if k.startswith("conv0")},
        )
        target = self._net(7)
        with pytest.raises(KeyError, match="missing"):
            target.load_state_dict(load_state(path))

