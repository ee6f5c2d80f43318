"""Tests for protocol messages."""

import numpy as np
import pytest

from repro.comm.message import Message, MessageKind, error_message, result_message


class TestMessage:
    def test_roundtrip(self, rng):
        msg = Message(
            MessageKind.RUN_SUBNET,
            fields={"spec": "lower50"},
            arrays={"x": rng.standard_normal((2, 1, 4, 4))},
        )
        again = Message.decode(msg.encode())
        assert again.kind == MessageKind.RUN_SUBNET
        assert again.fields == {"spec": "lower50"}
        np.testing.assert_array_equal(again.arrays["x"], msg.arrays["x"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Message("teleport")

    def test_ping_has_no_payload(self):
        again = Message.decode(Message(MessageKind.PING).encode())
        assert again.kind == MessageKind.PING
        assert again.arrays == {}

    def test_error_helper(self):
        msg = error_message("boom")
        assert msg.kind == MessageKind.ERROR
        assert msg.fields["reason"] == "boom"

    def test_result_helper(self, rng):
        msg = result_message({"logits": rng.standard_normal((1, 10))}, compute_s=0.5)
        assert msg.kind == MessageKind.RESULT
        assert msg.fields["compute_s"] == 0.5

    def test_decode_requires_kind(self, rng):
        from repro.comm.wire import encode_frame

        frame = encode_frame({}, {"fields": {}})
        with pytest.raises(ValueError):
            Message.decode(frame)
