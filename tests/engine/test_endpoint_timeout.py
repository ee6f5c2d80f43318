"""TransportEndpoint's wait: a slow worker is waited for, a dead one fails.

A recv timeout alone is ambiguous: the peer may be computing a long batch
(keep waiting; the hedge watchdog covers stragglers) or it may be gone
(eject at once).  An endpoint built with an ``alive_probe`` — an OS-level
liveness oracle independent of the transport — waits inside
``await_reply`` for as long as the probe vouches for the peer.  Everything
else is :class:`EndpointUnavailable`: a failed probe, no probe at all (one
timeout bounds the wait), a closed peer, and an ERROR reply.
"""

import threading

import numpy as np
import pytest

from repro.comm.message import Message, MessageKind, result_message
from repro.comm.transport import InProcChannel, TransportError
from repro.engine.endpoints import EndpointUnavailable, TransportEndpoint


def _endpoint(channel, probe=None, timeout=0.02):
    return TransportEndpoint(
        "w0", channel.a, request_timeout=timeout, alive_probe=probe
    )


class TestSlowVsDead:
    def test_timeout_with_live_probe_is_slow(self):
        """Each timeout re-asks the probe: the wait outlasts three timeouts
        while it vouches for the peer, and ends the moment it stops."""
        channel = InProcChannel()
        answers = iter([True, True, True, False])
        probes = []

        def probe():
            probes.append(1)
            return next(answers)

        endpoint = _endpoint(channel, probe=probe)
        with pytest.raises(EndpointUnavailable, match="timeout"):
            endpoint.run_parts("lower50", {"rows": 1})
        assert len(probes) == 4

    def test_timeout_with_dead_probe_is_unavailable(self):
        channel = InProcChannel()
        endpoint = _endpoint(channel, probe=lambda: False)
        with pytest.raises(EndpointUnavailable, match="timeout"):
            endpoint.run_parts("lower50", {"rows": 1})

    def test_timeout_without_probe_keeps_legacy_classification(self):
        channel = InProcChannel()
        endpoint = _endpoint(channel, probe=None)
        with pytest.raises(EndpointUnavailable, match="timeout"):
            endpoint.run_parts("lower50", {"rows": 1})

    def test_closed_peer_is_unavailable_even_with_live_probe(self):
        channel = InProcChannel()
        endpoint = _endpoint(channel, probe=lambda: True)
        channel.b.close()
        with pytest.raises(EndpointUnavailable):
            endpoint.run_parts("lower50", {"rows": 1})

    def test_peer_closing_mid_wait_is_unavailable_even_with_live_probe(self):
        channel = InProcChannel()
        endpoint = _endpoint(channel, probe=lambda: True)

        def leaving_worker():
            channel.b.recv(timeout=5.0)
            channel.b.close()

        worker = threading.Thread(target=leaving_worker, daemon=True)
        worker.start()
        with pytest.raises(EndpointUnavailable, match="closed"):
            endpoint.run_parts("lower50", {"rows": 1})
        worker.join(timeout=5.0)
        assert not endpoint.available


class TestAwaitReply:
    def test_await_reply_resumes_after_timeout(self):
        """A live probe keeps the wait going until the late reply arrives."""
        channel = InProcChannel()
        probes = []
        late = threading.Event()  # the worker answers once the wait has timed out thrice

        def probe():
            probes.append(1)
            if len(probes) == 3:
                late.set()
            return True

        def slow_worker():
            request = channel.b.recv(timeout=5.0)
            assert request.kind == MessageKind.RUN_PARTS
            late.wait(timeout=5.0)
            channel.b.send(result_message({"out": np.ones((2, 3))}, compute_s=0.08))

        worker = threading.Thread(target=slow_worker, daemon=True)
        worker.start()
        reply = _endpoint(channel, probe=probe).run_parts("lower50", {"rows": 2})
        worker.join(timeout=5.0)
        assert len(probes) >= 3
        np.testing.assert_array_equal(reply.arrays["out"], np.ones((2, 3)))
        assert reply.compute_s == 0.08
        assert reply.payload_bytes == reply.arrays["out"].nbytes

    def test_dropped_replies_are_waited_out_through_the_intercept(self):
        """A drop window (``faults.injector``) raises from ``intercept`` on
        every wait; the reply queued behind it is collected once it ends."""
        channel = InProcChannel()
        endpoint = _endpoint(channel, probe=lambda: True)
        drops = []

        def intercept():
            if len(drops) < 3:
                drops.append(1)
                raise TransportError("fault: reply dropped")

        endpoint.intercept = intercept
        channel.b.send(result_message({"out": np.zeros(2)}))
        reply = endpoint.run_parts("lower50", {"rows": 1})
        assert len(drops) == 3
        np.testing.assert_array_equal(reply.arrays["out"], np.zeros(2))

    def test_error_reply_is_unavailable(self):
        channel = InProcChannel()
        endpoint = _endpoint(channel, probe=lambda: True)
        channel.b.send(Message(MessageKind.ERROR, fields={"reason": "boom"}))
        with pytest.raises(EndpointUnavailable, match="boom"):
            endpoint.run_parts("lower50", {"rows": 1})
