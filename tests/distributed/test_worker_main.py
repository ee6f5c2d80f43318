"""Tests for the worker process entry point (argument plumbing)."""

import numpy as np
import pytest

from repro.distributed.worker_main import build_parser
from repro.nn.checkpoint import save_state
from repro.slimmable import SlimmableConvNet, WidthSpec, paper_width_spec
from repro.utils import make_rng


class TestParser:
    def test_defaults_match_paper_config(self):
        args = build_parser().parse_args(["--port", "0", "--weights", "w.npz"])
        assert args.max_width == 16
        assert args.lower_widths == [4, 8, 12, 16]
        assert args.split == 8
        assert args.num_convs == 3

    def test_custom_widths(self):
        args = build_parser().parse_args(
            [
                "--port", "0", "--weights", "w.npz",
                "--max-width", "8", "--lower-widths", "4", "8", "--split", "4",
            ]
        )
        spec = WidthSpec(
            max_width=args.max_width,
            lower_widths=tuple(args.lower_widths),
            split=args.split,
            num_convs=args.num_convs,
        )
        assert spec.max_width == 8

    def test_port_and_weights_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--port", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--weights", "w.npz"])


class TestCheckpointCompatibility:
    def test_worker_reconstructs_identical_net(self, tmp_path):
        """The weights the cluster launcher writes must load into the net the
        worker builds from CLI args — same architecture, same outputs."""
        source = SlimmableConvNet(paper_width_spec(), rng=make_rng(3))
        path = str(tmp_path / "w.npz")
        save_state(path, source.state_dict())

        from repro.nn.checkpoint import load_state

        rebuilt = SlimmableConvNet(paper_width_spec(), rng=make_rng(99))
        rebuilt.load_state_dict(load_state(path))
        x = make_rng(0).standard_normal((2, 1, 28, 28))
        spec = source.width_spec.find("upper50")
        va, vb = source.view(spec), rebuilt.view(spec)
        va.train(False)
        vb.train(False)
        np.testing.assert_array_equal(va(x), vb(x))
