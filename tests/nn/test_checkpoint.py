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
    """``load_state_dict(load_state(path), strict=False)`` into slimmable nets
    (the replica-spawn path)."""

    def _net(self, seed):
        from repro.slimmable import SlimmableConvNet, paper_width_spec

        return SlimmableConvNet(paper_width_spec(), rng=make_rng(seed))

    def test_partial_load_overwrites_only_saved_keys(self, tmp_path):
        from repro.nn.context import ForwardContext

        donor = self._net(0)
        full_state = donor.state_dict()
        partial = {
            k: v for k, v in full_state.items() if k.startswith(("conv0", "conv1"))
        }
        assert partial and len(partial) < len(full_state)
        path = str(tmp_path / "partial.npz")
        save_state(path, partial)

        target = self._net(1)
        before = {k: v.copy() for k, v in target.state_dict().items()}
        target.load_state_dict(load_state(path), strict=False)
        after = target.state_dict()
        for key in full_state:
            if key in partial:
                np.testing.assert_array_equal(after[key], full_state[key])
            else:
                np.testing.assert_array_equal(after[key], before[key])

        # A non-max-width view over the partially loaded store still serves.
        view = target.view(target.width_spec.lower(8))
        view.train(False)
        x = make_rng(2).standard_normal((3, 1, 28, 28))
        logits = view.forward(x, ForwardContext(recording=False))
        assert logits.shape == (3, 10)
        assert np.isfinite(logits).all()

    def test_partial_load_reaches_non_max_width_slices(self, tmp_path):
        """Loaded full-width tensors feed every sub-network width's slice."""
        from repro.nn.context import ForwardContext

        donor = self._net(3)
        path = str(tmp_path / "conv0.npz")
        save_state(
            path, {k: v for k, v in donor.state_dict().items() if k.startswith("conv0")}
        )
        target = self._net(4)
        target.load_state_dict(load_state(path), strict=False)
        donor_w = donor.state_dict()["conv0.weight"]
        for width in target.width_spec.lower_widths:
            spec = target.width_spec.lower(width)
            view = target.view(spec)
            view.train(False)
            x = make_rng(5).standard_normal((2, 1, 28, 28))
            out = view.forward(x, ForwardContext(recording=False))
            assert out.shape == (2, 10)
            # The slice a narrow view reads is exactly the donor's prefix.
            np.testing.assert_array_equal(
                target.state_dict()["conv0.weight"][:width], donor_w[:width]
            )

    def test_strict_load_rejects_partial_state(self, tmp_path):
        donor = self._net(6)
        path = str(tmp_path / "strict.npz")
        save_state(
            path,
            {k: v for k, v in donor.state_dict().items() if k.startswith("conv0")},
        )
        target = self._net(7)
        with pytest.raises(KeyError, match="missing"):
            target.load_state_dict(load_state(path), strict=True)

    def test_strict_false_ignores_unexpected_keys(self, tmp_path):
        donor = self._net(8)
        state = donor.state_dict()
        state["not_a_layer.weight"] = np.zeros(3)
        path = str(tmp_path / "extra.npz")
        save_state(path, state)
        target = self._net(9)
        target.load_state_dict(load_state(path), strict=False)
        np.testing.assert_array_equal(
            target.state_dict()["classifier.weight"], state["classifier.weight"]
        )
