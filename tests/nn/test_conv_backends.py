"""Property-based equivalence suite for the one conv lowering.

The contracts under test (see ``nn/functional.py`` / README):

* the compiled plans' K-major gather :func:`~repro.nn.functional.im2col_into`,
  through a :func:`~repro.nn.functional.bind_im2col` binding, writes exactly the eager :func:`~repro.nn.functional.im2col` bytes for
  every geometry — kernels, strides and paddings the paper's net never
  uses included — in both float64 and float32, and allocates no array;
* every compiled conv declares one one-image staging buffer, sized by the
  layer's full input width and never by the batch, live only at its gather;
* at the plan level, a compiled plan stays bitwise equal to the eager
  serving path at every width under both dtype policies.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.graph import BlockPartition
from repro.engine.session import InferenceSession
from repro.models.zoo import build_model
from repro.nn import functional as F
from repro.nn.plan import InferencePlan, PackedWeightCache
from repro.utils.dtypes import DtypePolicy, dtype_policy
from repro.utils.rng import make_rng
from tests.nn.arenas import checked_out

WIDTHS = ("lower25", "lower50", "lower75", "lower100")


@pytest.fixture(scope="module")
def fluid_model():
    return build_model("fluid", rng=make_rng(23))


conv_geometry = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n": st.integers(1, 17),
        "c_in": st.integers(1, 4),
        "kernel": st.integers(1, 4),
        "stride": st.integers(1, 3),
        "padding": st.integers(0, 2),
        "extra_h": st.integers(0, 5),
        "extra_w": st.integers(0, 5),
    }
)


class TestGather:
    @given(geo=conv_geometry, dtype=st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=60, deadline=None)
    def test_im2col_into_is_im2col_bitwise(self, geo, dtype):
        rng = make_rng(geo["seed"])
        k, stride, pad = geo["kernel"], geo["stride"], geo["padding"]
        h, w = k + geo["extra_h"], k + geo["extra_w"]
        x = rng.standard_normal((geo["n"], geo["c_in"], h, w)).astype(dtype)
        ref, (oh, ow) = F.im2col(x, (k, k), stride, pad)
        # Garbage-filled buffers: every byte of the result must be written.
        out = np.full_like(ref, np.nan)
        stage = np.full((geo["c_in"] * k * k, oh * ow), np.nan, dtype=dtype)
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        F.im2col_into(F.bind_im2col(padded, (k, k), stride, out, stage))
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()


    @pytest.mark.parametrize("dtype", (np.float64, np.float32), ids=["float64", "float32"])
    @pytest.mark.parametrize("conv", (0, 1, 2))
    def test_served_geometries_gather_bitwise(self, fluid_model, conv, dtype):
        """The three convs the plans run, in their own arena buffers."""
        plan = InferencePlan.compile(fluid_model, "lower100", batch_rows=16, dtype=dtype)
        step = plan._steps[conv]
        h, w = step.in_hw
        pad = step.padding
        rng = make_rng(conv)
        with checked_out(plan.workspaces) as ws:
            for rows in (16, 1, 5):
                x = rng.standard_normal((rows, step.in_slice.width, h, w)).astype(dtype)
                ref, out_hw = F.im2col(x, step.kernel, step.stride, pad)
                src = ws[step.src][:rows]
                src[:, :, pad : pad + h, pad : pad + w] = x
                cols = ws[step.cols][: ref.shape[0]]
                cols.fill(np.nan)
                ws[step.stage].fill(np.nan)
                assert out_hw == step.out_hw
                F.im2col_into(F.bind_im2col(src, step.kernel, step.stride, cols, ws[step.stage]))
                assert cols.tobytes() == ref.tobytes()

    def test_gather_allocates_no_array(self, fluid_model):
        plan = InferencePlan.compile(fluid_model, "lower100", batch_rows=16)
        step = plan._steps[1]
        with checked_out(plan.workspaces) as ws:
            gather = F.bind_im2col(
                ws[step.src], step.kernel, step.stride, ws[step.cols], ws[step.stage]
            )
            F.im2col_into(gather)
            calls = 20
            tracemalloc.start()
            for _ in range(calls):
                F.im2col_into(gather)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        # Small Python objects only (the binding holds every view): the
        # staging buffer alone is 144 x 196 doubles (225 KiB), the columns 3.4 MiB.
        assert peak < 16 * 1024, peak

    def test_a_stage_of_another_geometry_is_refused(self):
        x = np.zeros((2, 3, 6, 6))
        cols = np.empty((2 * 4 * 4, 3 * 3 * 3))
        with pytest.raises(ValueError):
            F.bind_im2col(x, (3, 3), 1, cols, np.empty((3 * 3 * 3, 4 * 4 + 1)))


def _stage_specs(plan):
    return {s.name: s for s in plan.workspaces.specs if s.name.startswith("stage")}


def _expected_stage(step):
    kh, kw = step.kernel
    out_h, out_w = step.out_hw
    return (step.in_slice.width * kh * kw, out_h * out_w)


class TestStageBuffers:
    """Each conv stages one image K-major; the batch never sizes the stage."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_conv_stages_one_image(self, fluid_model, width):
        shapes = []
        for rows in (1, 16):
            plan = InferencePlan.compile(fluid_model, width, batch_rows=rows)
            specs = {s.name: s for s in plan.workspaces.specs}
            stages = _stage_specs(plan)
            assert sorted(stages) == sorted(step.stage for step in plan._steps)
            for step in plan._steps:
                stage = stages[step.stage]
                assert stage.shape == _expected_stage(step)
                assert stage.dtype == plan.dtype.name
                # Written and read within the gather step alone, which is
                # the first step of the columns buffer it fills.
                gather = specs[step.cols].live[0]
                assert stage.live == (gather, gather)
            shapes.append([stages[step.stage].shape for step in plan._steps])
        assert shapes[0] == shapes[1]

    def test_partition_plans_stage_the_full_input_width(self, fluid_model):
        net = fluid_model.net
        spec = net.width_spec.full()
        partition = BlockPartition.two_way(net.width_spec.split, net.width_spec.max_width)
        single = InferencePlan.compile(net, spec, batch_rows=4)
        want = [_expected_stage(step) for step in single._steps]
        for index in range(partition.num_blocks):
            plan = InferencePlan.compile(
                net, spec, batch_rows=4,
                block_of=functools.partial(partition.clipped_block, index),
            )
            stages = _stage_specs(plan)
            # Each device gathers its peers' halo channels too, so its stage
            # matches the single-device plan's though its GEMM is half as wide.
            assert [stages[step.stage].shape for step in plan._steps] == want


class TestPlanEquivalence:
    """Plan-level contract across widths, batches, and dtype policies."""

    @pytest.mark.parametrize("policy", (DtypePolicy(), DtypePolicy.fast_inference()),
                             ids=["float64", "float32"])
    def test_plan_is_eager_bitwise_at_all_widths(self, fluid_model, policy):
        rng = make_rng(7)
        with dtype_policy(policy):
            cache = PackedWeightCache()
            for width in WIDTHS:
                session = InferenceSession(fluid_model, width)
                plan = InferencePlan.compile(fluid_model, width, batch_rows=5, cache=cache)
                for n in (1, 3, 5):
                    x = rng.standard_normal((n, 1, 28, 28))
                    eager = session.run(x)
                    got = plan.run(x)
                    assert got.dtype == eager.dtype
                    np.testing.assert_array_equal(got, eager)
