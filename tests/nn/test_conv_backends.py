"""Property-based equivalence suite for the conv backends.

The contracts under test (see ``nn/functional.py`` / README):

* ``shifted-gemm`` is **allclose** (within the per-dtype
  :data:`~repro.nn.functional.SHIFTED_GEMM_TOLERANCE`) to the im2col
  convolution for every stride-1 geometry, in both float64 and float32 —
  the only divergence is reduction re-association across kernel columns;
* at the plan level, the exact backend stays bitwise equal to the eager
  serving path at every width under both dtype policies, and
  shifted-GEMM stays inside its tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.session import InferenceSession
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.plan import InferencePlan, PackedWeightCache
from repro.utils import make_rng
from repro.utils.dtypes import DtypePolicy, dtype_policy

WIDTHS = ("lower25", "lower50", "lower75", "lower100")


@pytest.fixture(scope="module")
def fluid_model():
    return build_model("fluid", rng=make_rng(23))


conv_geometry = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n": st.integers(1, 3),
        "c_in": st.integers(1, 4),
        "c_out": st.integers(1, 4),
        "kernel": st.integers(1, 4),
        "stride": st.integers(1, 3),
        "padding": st.integers(0, 2),
        "extra_h": st.integers(0, 5),
        "extra_w": st.integers(0, 5),
    }
)


def _random_case(geo, dtype=np.float64):
    rng = make_rng(geo["seed"])
    k = geo["kernel"]
    h, w = k + geo["extra_h"], k + geo["extra_w"]
    x = rng.standard_normal((geo["n"], geo["c_in"], h, w)).astype(dtype)
    weight = rng.standard_normal((geo["c_out"], geo["c_in"], k, k)).astype(dtype)
    bias = rng.standard_normal(geo["c_out"]).astype(dtype)
    return x, weight, bias


class TestShiftedGemm:
    @given(geo=conv_geometry)
    @settings(max_examples=60, deadline=None)
    def test_float64_within_tolerance(self, geo):
        x, weight, bias = _random_case(geo)
        ref, _ = F.conv2d_forward(x, weight, bias, 1, geo["padding"])
        got = F.conv2d_shifted(x, weight, bias, geo["padding"])
        tol = F.shifted_gemm_tolerance(np.float64)
        np.testing.assert_allclose(got, ref, **tol)

    @given(geo=conv_geometry)
    @settings(max_examples=40, deadline=None)
    def test_float32_within_tolerance(self, geo):
        x, weight, bias = _random_case(geo, dtype=np.float32)
        ref, _ = F.conv2d_forward(x, weight, bias, 1, geo["padding"])
        got = F.conv2d_shifted(x, weight, bias, geo["padding"])
        assert got.dtype == np.float32
        tol = F.shifted_gemm_tolerance(np.float32)
        np.testing.assert_allclose(got, ref, **tol)

    def test_channel_mismatch_and_rectangular_kernel_rejected(self):
        rng = make_rng(3)
        x = rng.standard_normal((1, 2, 6, 6))
        with pytest.raises(ValueError, match="channels"):
            F.conv2d_shifted(x, rng.standard_normal((3, 4, 3, 3)), np.zeros(3), 1)
        with pytest.raises(ValueError, match="square"):
            F.conv2d_shifted(x, rng.standard_normal((3, 2, 3, 2)), np.zeros(3), 1)

    def test_stride_2_plan_compile_rejected(self):
        walk = [{"stride": 2, "index": 0}]
        with pytest.raises(ValueError, match="stride-1"):
            InferencePlan._compile_shifted(None, walk, 4, np.dtype("float64"))

    def test_unknown_backend_rejected(self, fluid_model):
        with pytest.raises(ValueError, match="unknown conv backend"):
            InferencePlan.compile(fluid_model, "lower50", batch_rows=2, conv_backend="winograd")
        with pytest.raises(ValueError, match="unknown conv backend"):
            F.check_conv_backend("winograd")

    def test_tolerance_table_covers_compute_dtypes(self):
        assert F.shifted_gemm_tolerance("float32")["rtol"] > F.shifted_gemm_tolerance(
            "float64"
        )["rtol"]
        with pytest.raises(ValueError, match="tolerance"):
            F.shifted_gemm_tolerance("float16")


class TestPlanBackendEquivalence:
    """Plan-level contracts across widths, batches, and dtype policies."""

    @pytest.mark.parametrize("policy", (DtypePolicy(), DtypePolicy.fast_inference()),
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("backend", F.CONV_BACKENDS)
    def test_backend_contract_all_widths(self, fluid_model, policy, backend):
        rng = make_rng(7)
        with dtype_policy(policy):
            cache = PackedWeightCache()
            for width in WIDTHS:
                session = InferenceSession(fluid_model, width)
                plan = InferencePlan.compile(
                    fluid_model, width, batch_rows=5, cache=cache, conv_backend=backend
                )
                for n in (1, 3, 5):
                    x = rng.standard_normal((n, 1, 28, 28))
                    eager = session.run(x)
                    got = plan.run(x)
                    assert got.dtype == eager.dtype
                    if plan.exact:
                        np.testing.assert_array_equal(got, eager)
                    else:
                        np.testing.assert_allclose(
                            got, eager, **F.shifted_gemm_tolerance(plan.dtype)
                        )

    def test_exact_flag_tracks_backend(self, fluid_model):
        for backend in F.CONV_BACKENDS:
            plan = InferencePlan.compile(
                fluid_model, "lower25", batch_rows=2, conv_backend=backend
            )
            assert plan.exact == (backend != "shifted-gemm")

    def test_shifted_run_parts_scatters_like_concatenate(self, fluid_model):
        rng = make_rng(9)
        plan = InferencePlan.compile(
            fluid_model, "lower50", batch_rows=6, conv_backend="shifted-gemm"
        )
        parts = [rng.standard_normal((n, 1, 28, 28)) for n in (1, 2, 3)]
        whole = plan.run(np.concatenate(parts, axis=0))
        split = plan.run_parts(parts)
        np.testing.assert_array_equal(split, whole)

    def test_shifted_smaller_batch_unpolluted_by_previous_rows(self, fluid_model):
        """Arena rows beyond n keep an earlier, larger request's rows (the
        offset GEMMs' tail reads into them); they must never leak into a
        later, smaller request."""
        rng = make_rng(10)
        plan = InferencePlan.compile(
            fluid_model, "lower25", batch_rows=4, conv_backend="shifted-gemm"
        )
        plan.run(rng.standard_normal((4, 1, 28, 28)))  # fill all rows
        x = rng.standard_normal((2, 1, 28, 28))
        np.testing.assert_array_equal(plan.run(x), plan.run(x))
        session = InferenceSession(fluid_model, "lower25")
        np.testing.assert_allclose(
            plan.run(x), session.run(x), **F.shifted_gemm_tolerance(plan.dtype)
        )
