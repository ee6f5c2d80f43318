"""Tests for the binary wire format, including adversarial frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.wire import WireError, cast_for_wire, decode_frame, encode_frame, wire_dtype
from repro.utils.dtypes import TRANSPORT_DTYPES, dtype_policy
from repro.utils.rng import make_rng


class TestRoundTrip:
    def test_basic(self, rng):
        arrays = {"x": rng.standard_normal((2, 3)), "y": np.arange(4, dtype=np.int64)}
        meta = {"kind": "test", "nested": {"a": 1}}
        out_arrays, out_meta = decode_frame(encode_frame(arrays, meta))
        assert out_meta == meta
        np.testing.assert_array_equal(out_arrays["x"], arrays["x"])
        np.testing.assert_array_equal(out_arrays["y"], arrays["y"])

    def test_empty_arrays(self):
        out_arrays, out_meta = decode_frame(encode_frame({}, {"m": 1}))
        assert out_arrays == {}
        assert out_meta == {"m": 1}

    def test_zero_size_array(self):
        arrays, _ = decode_frame(encode_frame({"e": np.zeros((0, 3))}, {}))
        assert arrays["e"].shape == (0, 3)

    def test_scalar_array(self):
        arrays, _ = decode_frame(encode_frame({"s": np.array(3.5)}, {}))
        assert arrays["s"].shape == ()
        assert float(arrays["s"]) == 3.5

    def test_preserves_dtype(self):
        for dtype in ("float32", "float64", "int32", "int64", "uint8", "bool"):
            src = np.ones((2, 2), dtype=dtype)
            arrays, _ = decode_frame(encode_frame({"a": src}, {}))
            assert arrays["a"].dtype == np.dtype(dtype)

    def test_non_contiguous_input(self, rng):
        base = rng.standard_normal((4, 6))
        view = base[:, ::2]  # non-contiguous
        arrays, _ = decode_frame(encode_frame({"v": view}, {}))
        np.testing.assert_array_equal(arrays["v"], view)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        n=st.integers(1, 5),
        shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    )
    def test_roundtrip_randomised(self, seed, n, shape):
        rng = make_rng(seed)
        arrays = {f"a{i}": rng.standard_normal(tuple(shape)) for i in range(n)}
        decoded, _ = decode_frame(encode_frame(arrays, {"seed": seed}))
        for name, arr in arrays.items():
            np.testing.assert_array_equal(decoded[name], arr)


class TestDtypeAllowlist:
    """Every allowlisted dtype round-trips; everything else is rejected."""

    @pytest.mark.parametrize("dtype", sorted(TRANSPORT_DTYPES))
    def test_roundtrip_every_allowed_dtype(self, dtype):
        if dtype == "bool":
            src = np.array([[True, False], [False, True]])
        elif np.issubdtype(np.dtype(dtype), np.integer):
            info = np.iinfo(dtype)
            src = np.array([[info.min, 0], [7, info.max]], dtype=dtype)
        else:
            src = np.array([[-1.5, 0.0], [np.pi, 1e30]], dtype=dtype)
        decoded, _ = decode_frame(encode_frame({"a": src}, {"dtype": dtype}))
        assert decoded["a"].dtype == np.dtype(dtype)
        assert decoded["a"].shape == src.shape
        np.testing.assert_array_equal(decoded["a"], src)

    @pytest.mark.parametrize(
        "dtype", ["float16", "int16", "uint64", "complex64", "complex128"]
    )
    def test_disallowed_dtype_rejected_on_encode(self, dtype):
        assert dtype not in TRANSPORT_DTYPES
        with pytest.raises(WireError, match="not allowed"):
            encode_frame({"bad": np.ones(3, dtype=dtype)}, {})

    @pytest.mark.parametrize("dtype", ["float16", "complex128"])
    def test_disallowed_dtype_rejected_on_decode(self, dtype):
        import json
        import struct

        header = json.dumps(
            {"meta": {}, "arrays": [{"name": "x", "dtype": dtype, "shape": [1]}]}
        ).encode()
        frame = b"FDN1" + struct.pack(">I", len(header)) + header + b"\x00" * 16
        with pytest.raises(WireError, match="not allowed"):
            decode_frame(frame)


class TestWireDtypePolicy:
    def test_default_wire_dtype_is_float32(self):
        assert wire_dtype() == np.float32

    def test_policy_selects_wire_dtype(self):
        with dtype_policy(wire="float64"):
            assert wire_dtype() == np.float64
            assert cast_for_wire(np.zeros(2, dtype=np.float32)).dtype == np.float64

    def test_cast_for_wire_no_copy_when_already_there(self):
        x = np.zeros(4, dtype=np.float32)
        assert cast_for_wire(x) is x

    def test_cast_for_wire_roundtrips_through_frame(self, rng):
        x = rng.standard_normal((3, 5))
        wired = cast_for_wire(x)
        decoded, _ = decode_frame(encode_frame({"x": wired}, {}))
        np.testing.assert_array_equal(decoded["x"], x.astype(np.float32))


class TestRejections:
    def test_object_dtype_rejected(self):
        with pytest.raises(WireError):
            encode_frame({"bad": np.array([object()])}, {})

    def test_bad_magic(self):
        frame = bytearray(encode_frame({"x": np.zeros(2)}, {}))
        frame[0] = ord("X")
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(frame))

    def test_truncated_header(self):
        frame = encode_frame({"x": np.zeros(2)}, {})
        with pytest.raises(WireError):
            decode_frame(frame[:6])

    def test_truncated_payload(self):
        frame = encode_frame({"x": np.zeros(100)}, {})
        with pytest.raises(WireError, match="truncated"):
            decode_frame(frame[:-10])

    def test_trailing_garbage(self):
        frame = encode_frame({"x": np.zeros(2)}, {})
        with pytest.raises(WireError, match="trailing"):
            decode_frame(frame + b"junk")

    def test_header_not_json(self):
        import struct

        header = b"not json at all"
        frame = b"FDN1" + struct.pack(">I", len(header)) + header
        with pytest.raises(WireError):
            decode_frame(frame)

    @staticmethod
    def _declared(shape, payload=b"", dtype="float32"):
        """A well-formed frame whose one array claims ``shape`` and ``dtype``."""
        import json
        import struct

        header = json.dumps(
            {"meta": {}, "arrays": [{"name": "x", "dtype": dtype, "shape": shape}]}
        ).encode()
        return b"FDN1" + struct.pack(">I", len(header)) + header + payload

    def test_smuggled_dtype_rejected(self):
        frame = self._declared([1], payload=b"\x00" * 8, dtype="object")
        with pytest.raises(WireError, match="not allowed"):
            decode_frame(frame)

    def test_negative_shape_rejected(self):
        with pytest.raises(WireError):
            decode_frame(self._declared([-1], dtype="float64"))

    def test_shape_that_overflows_int64_is_truncation_not_a_crash(self):
        """(2**62 + 1) * 4 wraps to 4 in int64 and matched a 4-element payload."""
        frame = self._declared([2**62 + 1, 4], payload=b"\x00" * 16)
        with pytest.raises(WireError, match="truncated"):
            decode_frame(frame)

    def test_zero_dimensions_decode_or_fail_cleanly(self):
        arrays, _ = decode_frame(self._declared([0, 0]))
        assert arrays["x"].shape == (0, 0)
        # Zero elements, no payload to be short of — and not an ndarray shape.
        for shape in ([0, 2**62 + 1], [2**40, 2**40, 0]):
            with pytest.raises(WireError, match="bad shape"):
                decode_frame(self._declared(shape))

    def test_deeply_nested_header_rejected(self):
        """A header nested past the JSON parser's recursion limit."""
        import struct

        header = b"[" * 100_000
        with pytest.raises(WireError, match="bad header"):
            decode_frame(b"FDN1" + struct.pack(">I", len(header)) + header)

    def test_oversized_declared_header(self):
        import struct

        frame = b"FDN1" + struct.pack(">I", 1 << 24) + b"x"
        with pytest.raises(WireError):
            decode_frame(frame)


# Any JSON value; headers are built from these so the fuzz reaches the
# per-array checks as well as the top-level ones.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_ARRAY_ENTRY = st.fixed_dictionaries(
    {
        "name": st.text(max_size=4) | _JSON,
        "dtype": st.sampled_from(sorted(TRANSPORT_DTYPES)) | _JSON,
        "shape": st.lists(st.integers(-1, 2**64), max_size=3) | _JSON,
    }
)
_HEADER = _JSON | st.fixed_dictionaries(
    {"meta": _JSON, "arrays": st.lists(_ARRAY_ENTRY, max_size=3) | _JSON}
)


@settings(max_examples=300, deadline=None)
@given(header=_HEADER, payload=st.binary(max_size=64))
def test_any_json_header_decodes_or_raises_wire_error(header, payload):
    """A frame whose header is any JSON value either decodes or raises
    WireError: never another exception, which would end a worker's loop."""
    import json
    import struct

    encoded = json.dumps(header).encode()
    frame = b"FDN1" + struct.pack(">I", len(encoded)) + encoded + payload
    try:
        decode_frame(frame)
    except WireError:
        pass
