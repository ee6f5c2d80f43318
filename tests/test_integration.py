"""End-to-end integration: the paper's full story on tiny models.

Train all three families -> run the Fig. 2 harness -> drive the failure
timeline.  This is the whole pipeline a user of the library runs, in one
test module; the paper's claims on the same models are checked in
``tests/experiments/test_paper.py``.
"""

import numpy as np
import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.modes import ExecutionMode
from repro.faults.plan import single_fault
from repro.runtime.controller import SystemController
from repro.runtime.policy import AdaptationPolicy


@pytest.fixture(scope="module")
def pipeline(trained_models, tiny_data, tiny_record):
    _, test_set = tiny_data
    return trained_models, test_set, tiny_record["analytic"]["fig2_throughput_ips"]


class TestFullPipeline:
    def test_throughput_cells_paper_exact(self, pipeline):
        _, _, bars = pipeline
        assert bars["fluid/master_and_worker/HT"]["reproduced"] == pytest.approx(28.3, rel=0.005)

    def test_failure_timeline_consistent_with_fig2(self, pipeline):
        """The controller's post-failure throughput equals the Fig. 2 cell."""
        models, _, bars = pipeline
        model = models["fluid"]
        tm = SystemThroughputModel(
            model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        controller = SystemController(AdaptationPolicy(model, tm), tm)
        timeline = controller.simulate(single_fault("master", at_s=5.0), horizon_s=10.0)
        final = timeline.transitions[-1]
        assert final.plan.mode is ExecutionMode.SOLO
        cell = bars["fluid/only_worker/solo"]["reproduced"]
        assert final.throughput.throughput_ips == pytest.approx(cell)

    def test_checkpoint_roundtrip_preserves_fig2_accuracy(self, pipeline, tmp_path):
        """Save + reload the fluid model; its Fig. 2 accuracies are identical."""
        from repro.models.zoo import build_model
        from repro.nn.checkpoint import load_state, save_state
        from repro.utils.rng import make_rng

        models, test_set, _ = pipeline
        path = str(tmp_path / "fluid.npz")
        save_state(path, models["fluid"].state_dict())
        clone = build_model("fluid", rng=make_rng(123))
        clone.load_state_dict(load_state(path))
        original = models["fluid"].evaluate("upper50", test_set)
        assert clone.evaluate("upper50", test_set) == pytest.approx(original)
