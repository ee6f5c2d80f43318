"""Binary wire format for ndarray exchange (pickle-free).

Frame layout::

    MAGIC (4B)  |  header_len (4B, big-endian)  |  header (JSON, utf-8)  |  payload

The header describes each array's dtype/shape plus arbitrary JSON metadata;
the payload is the arrays' raw bytes concatenated in header order.  Arrays
are transmitted little-endian; dtypes are restricted to an allowlist so a
malicious peer cannot smuggle object arrays.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Dict, Tuple

import numpy as np

from repro.utils.dtypes import TRANSPORT_DTYPES, get_dtype_policy

MAGIC = b"FDN1"
_HEADER_STRUCT = struct.Struct(">I")
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 30


class WireError(ValueError):
    """Raised on malformed frames."""


def encode_frame(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> bytes:
    """Serialise named arrays + JSON-safe metadata into one frame."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        shape = arr.shape  # before ascontiguousarray, which promotes 0-d to (1,)
        dtype = arr.dtype.name
        if dtype not in TRANSPORT_DTYPES:
            raise WireError(f"dtype {dtype!r} not allowed on the wire (array {name!r})")
        arr = np.ascontiguousarray(arr)
        blob = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        entries.append({"name": name, "dtype": dtype, "shape": list(shape)})
        blobs.append(blob)
    header = json.dumps({"meta": meta, "arrays": entries}).encode("utf-8")
    if len(header) > MAX_HEADER_BYTES:
        raise WireError(f"header too large ({len(header)} bytes)")
    payload = b"".join(blobs)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireError(f"payload too large ({len(payload)} bytes)")
    return MAGIC + _HEADER_STRUCT.pack(len(header)) + header + payload


def decode_frame(frame: bytes) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Parse a frame produced by :func:`encode_frame`."""
    if len(frame) < len(MAGIC) + _HEADER_STRUCT.size:
        raise WireError("frame truncated before header")
    if frame[: len(MAGIC)] != MAGIC:
        raise WireError("bad magic")
    (header_len,) = _HEADER_STRUCT.unpack_from(frame, len(MAGIC))
    if header_len > MAX_HEADER_BYTES:
        raise WireError(f"declared header length {header_len} exceeds limit")
    header_start = len(MAGIC) + _HEADER_STRUCT.size
    header_end = header_start + header_len
    if len(frame) < header_end:
        raise WireError("frame truncated inside header")
    try:
        header = json.loads(frame[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WireError(f"bad header: {exc}") from exc
    if not isinstance(header, dict) or "arrays" not in header or "meta" not in header:
        raise WireError("header missing required keys")
    if not isinstance(header["arrays"], list):
        raise WireError(f"header arrays is a {type(header['arrays']).__name__}, not a list")

    arrays: Dict[str, np.ndarray] = {}
    offset = header_end
    for entry in header["arrays"]:
        try:
            name, dtype, shape = entry["name"], entry["dtype"], tuple(entry["shape"])
        except (KeyError, TypeError) as exc:
            raise WireError(f"bad array entry: {entry!r}") from exc
        if not isinstance(name, str):
            raise WireError(f"bad array name {name!r}")
        if not isinstance(dtype, str) or dtype not in TRANSPORT_DTYPES:
            raise WireError(f"dtype {dtype!r} not allowed on the wire")
        if any((not isinstance(d, int)) or d < 0 for d in shape):
            raise WireError(f"bad shape {shape!r}")
        count = math.prod(shape)  # exact: int64 would wrap on a hostile shape
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(frame):
            raise WireError(f"frame truncated inside array {name!r}")
        flat = np.frombuffer(frame, dtype=np.dtype(dtype).newbyteorder("<"), count=count, offset=offset)
        try:
            arrays[name] = flat.reshape(shape).astype(dtype)
        except (ValueError, TypeError) as exc:
            # An empty payload under dimensions NumPy cannot hold ([0, 2**62]).
            raise WireError(f"bad shape {shape!r}") from exc
        offset += nbytes
    if offset != len(frame):
        raise WireError(f"{len(frame) - offset} trailing bytes after last array")
    return arrays, header["meta"]


def wire_dtype() -> np.dtype:
    """Dtype float activations take on the wire, per the global policy."""
    dtype = get_dtype_policy().wire_dtype
    if dtype.name not in TRANSPORT_DTYPES:
        raise WireError(f"policy wire dtype {dtype.name!r} not in the allowlist")
    return dtype


def cast_for_wire(arr: np.ndarray) -> np.ndarray:
    """Cast a float activation to the policy wire dtype (no copy if already there)."""
    return np.asarray(arr, dtype=wire_dtype())
