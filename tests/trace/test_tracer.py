"""Tracer unit tests: ring buffer, sampling, the null tracer."""

import threading

import pytest

from repro.trace import tracer as tracer_module
from repro.trace.tracer import (
    EVENT_RESOLVE,
    EVENT_SUBMIT,
    EVENT_VOCABULARY,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
)


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.sample(0) is False
        NULL_TRACER.emit(1, EVENT_SUBMIT, rows=1)  # no-op, no state
        assert NULL_TRACER.take(1) == []
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.stats()["enabled"] is False

    def test_is_a_shared_singleton_type(self):
        assert isinstance(NULL_TRACER, NullTracer)


class TestEmission:
    def test_events_carry_kind_offset_and_data(self):
        tracer = Tracer()
        tracer.emit(7, EVENT_SUBMIT, rows=1, deadline_s=0.05)
        (event,) = tracer.events()
        assert event.request_id == 7
        assert event.kind == EVENT_SUBMIT
        assert event.t_s >= 0.0
        assert event.data["rows"] == 1
        assert event.to_json() == {
            "t_s": event.t_s, "kind": EVENT_SUBMIT, "rows": 1, "deadline_s": 0.05,
        }

    def test_take_pops_one_requests_events(self):
        tracer = Tracer()
        tracer.emit(1, EVENT_SUBMIT)
        tracer.emit(2, EVENT_SUBMIT)
        tracer.emit(1, EVENT_RESOLVE)
        taken = tracer.take(1)
        assert [e.kind for e in taken] == [EVENT_SUBMIT, EVENT_RESOLVE]
        assert tracer.take(1) == []  # popped
        assert tracer.stats()["in_flight_requests"] == 1  # request 2 remains

    def test_straggler_emit_after_take_does_not_leak_index(self):
        """A hedge leg finishing after its request resolved must not
        re-create a per-request entry nobody will ever take."""
        tracer = Tracer()
        tracer.emit(5, EVENT_SUBMIT)
        tracer.take(5)
        tracer.emit(5, EVENT_RESOLVE)  # straggler
        assert tracer.stats()["in_flight_requests"] == 0
        # The event still lands in the ring for "what happened lately".
        assert [e.kind for e in tracer.events() if e.request_id == 5] == [
            EVENT_SUBMIT, EVENT_RESOLVE,
        ]

    def test_closed_set_is_bounded(self):
        tracer = Tracer()
        for rid in range(5000):
            tracer.emit(rid, EVENT_SUBMIT)
            tracer.take(rid)
        assert len(tracer._closed) <= 4096

    def test_ring_drops_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "RING_CAPACITY", 4)
        tracer = Tracer()
        for rid in range(6):
            tracer.emit(rid, EVENT_SUBMIT)
        stats = tracer.stats()
        assert stats["emitted"] == 6
        assert stats["dropped"] == 2
        assert [e.request_id for e in tracer.events()] == [2, 3, 4, 5]

    def test_concurrent_emits_are_lossless(self):
        tracer = Tracer()

        def _emit(rid):
            for _ in range(200):
                tracer.emit(rid, EVENT_SUBMIT)

        threads = [threading.Thread(target=_emit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.stats()["emitted"] == 1600
        for rid in range(8):
            assert len(tracer.take(rid)) == 200


class TestSampling:
    def test_full_sampling_traces_everything(self):
        tracer = Tracer(sampling=1.0)
        assert all(tracer.sample(rid) for rid in range(100))

    def test_zero_sampling_traces_nothing(self):
        tracer = Tracer(sampling=0.0)
        assert not any(tracer.sample(rid) for rid in range(100))

    def test_decisions_are_deterministic_per_seed(self):
        a = Tracer(sampling=0.3, seed=42)
        b = Tracer(sampling=0.3, seed=42)
        decisions = [a.sample(rid) for rid in range(500)]
        assert decisions == [b.sample(rid) for rid in range(500)]
        hits = sum(decisions)
        assert 0 < hits < 500  # an actual fraction, not all/nothing

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(sampling=1.5)
        with pytest.raises(ValueError):
            Tracer(sampling=-0.1)


class TestVocabulary:
    def test_vocabulary_is_unique(self):
        assert len(set(EVENT_VOCABULARY)) == len(EVENT_VOCABULARY)

    def test_trace_event_is_frozen(self):
        event = TraceEvent(1, 0.0, EVENT_SUBMIT)
        with pytest.raises(Exception):
            event.kind = "other"
