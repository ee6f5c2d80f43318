"""Concurrent shared-weight serving: the stateless-context payoff.

Property under test: N threads running inference sessions over ONE shared
model produce bit-identical outputs to serial execution — for static,
slimmable (dynamic), and fluid models, at multiple widths simultaneously —
and the parameter store is never copied or written.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine.session import InferenceSession
from repro.models.zoo import build_model
from repro.nn.context import ForwardContext
from repro.slimmable.sliced_linear import SlicedLinear
from repro.utils.rng import make_rng

FAMILIES = ("static", "dynamic", "fluid")


def serve_concurrent(sessions, batches):
    """``sessions[i].run(batches[i])`` on one thread each; results in order
    (a worker's exception re-raises here)."""
    with ThreadPoolExecutor(max_workers=len(sessions)) as pool:
        return list(pool.map(lambda session, x: session.run(x), sessions, batches))


def family_subnets(model):
    """Every certified-or-not width in the family's spec (all are runnable)."""
    return [spec.name for spec in model.width_spec.all_specs()]


@pytest.fixture(scope="module")
def models():
    return {family: build_model(family, rng=make_rng(3)) for family in FAMILIES}


@pytest.fixture(scope="module")
def request_batches():
    rng = make_rng(17)
    return [rng.standard_normal((3, 1, 28, 28)) for _ in range(12)]


class TestZeroCopy:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_sessions_alias_one_parameter_store(self, models, family):
        model = models[family]
        sessions = [
            InferenceSession(model, name) for name in family_subnets(model) for _ in range(2)
        ]
        assert len(sessions) >= 4
        base = [id(p.data) for p in sessions[0].parameters()]
        for session in sessions[1:]:
            assert [id(p.data) for p in session.parameters()] == base

    def test_serving_never_writes_parameters(self, models, request_batches):
        model = models["fluid"]
        session = InferenceSession(model, "lower50")
        before = {id(p.data): p.data.copy() for p in session.parameters()}
        ids_before = sorted(before)
        for x in request_batches:
            session.run(x)
        ids_after = sorted(id(p.data) for p in session.parameters())
        assert ids_after == ids_before  # no rebinding / cloning
        for p in session.parameters():
            np.testing.assert_array_equal(p.data, before[id(p.data)])


class TestConcurrentMatchesSerial:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_threads_bitwise_equal_serial_across_widths(
        self, models, family, request_batches
    ):
        """K >= 4 concurrent requests at mixed widths == serial, bit for bit."""
        model = models[family]
        subnets = family_subnets(model)
        # One (session, batch) work item per subnet x batch chunk; >= 4 concurrent.
        work = [
            (InferenceSession(model, name), request_batches[i % len(request_batches)])
            for i, name in enumerate(subnets * 3)
        ]
        assert len(work) >= 4
        expected = [session.run(x) for session, x in work]

        sessions = [w[0] for w in work]
        batches = [w[1] for w in work]
        for _ in range(3):  # repeat to exercise different interleavings
            results = serve_concurrent(sessions, batches)
            for got, want in zip(results, expected):
                np.testing.assert_array_equal(got, want)

    def test_interleaved_widths_on_shared_barrier(self, models):
        """Threads start together on a barrier, each at a different width."""
        model = models["fluid"]
        subnets = family_subnets(model)
        rng = make_rng(23)
        batches = {name: rng.standard_normal((2, 1, 28, 28)) for name in subnets}
        expected = {
            name: InferenceSession(model, name).run(batches[name]) for name in subnets
        }

        barrier = threading.Barrier(len(subnets))
        results = {}
        errors = []

        def _worker(name):
            try:
                session = sessions[name]
                barrier.wait(timeout=10.0)
                for _ in range(5):
                    results[name] = session.run(batches[name])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        sessions = {name: InferenceSession(model, name) for name in subnets}
        threads = [threading.Thread(target=_worker, args=(n,)) for n in subnets]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for name in subnets:
            np.testing.assert_array_equal(results[name], expected[name])


class TestPlainModules:
    def test_session_requires_subnet_for_family(self, models):
        with pytest.raises(TypeError):
            InferenceSession(models["fluid"])

    def test_unknown_subnet_rejected(self, models):
        with pytest.raises(KeyError):
            InferenceSession(models["fluid"].net, "lower33")

    def test_non_recording_context_rejects_backward(self):
        rng = make_rng(11)
        net = SlicedLinear(4, 4, rng=rng)
        ctx = ForwardContext(recording=False)
        y = net.forward(make_rng(12).standard_normal((2, 4)), ctx)
        with pytest.raises(RuntimeError):
            net.backward(np.ones_like(y), ctx)
