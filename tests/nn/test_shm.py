"""Shared-memory arenas: allocation, parameter sharing, rings, cleanup."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.zoo import build_model
from repro.nn.shm import (
    RING_SEGMENT_TAG,
    ShmArena,
    ShmRing,
    create_segment,
    ensure_shared_parameters,
    list_segments,
    reap_orphaned_segments,
    unlink_created_segments,
)
from repro.utils.dtypes import TRANSPORT_DTYPES
from repro.utils.rng import make_rng


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = set(list_segments())
    yield
    unlink_created_segments()
    assert set(list_segments()) <= before, "test leaked shm segments"


class TestArena:
    def test_alloc_returns_segment_backed_views(self):
        arena = ShmArena.create(4096)
        a, off_a = arena.alloc((4, 8), np.float64)
        b, off_b = arena.alloc((16,), np.int64)
        a[:] = 3.5
        b[:] = 7
        assert off_a == 0 and off_b >= a.nbytes
        # Views alias the segment: rebuilding from (offset, shape) sees writes.
        again = arena.view(off_a, (4, 8), np.float64)
        assert np.array_equal(again, a)
        arena.unlink()

    def test_allocations_are_aligned(self):
        arena = ShmArena.create(4096)
        arena.alloc((3,), np.uint8)  # 3 bytes: next alloc must not pack behind it
        _, offset = arena.alloc((2,), np.float64)
        assert offset % 64 == 0
        arena.unlink()

    def test_exhaustion_raises(self):
        arena = ShmArena.create(256)
        with pytest.raises(MemoryError):
            arena.alloc((4096,), np.float64)
        arena.unlink()


class TestSharedParameterStore:
    def test_share_preserves_values_and_moves_storage(self):
        model = build_model("fluid", rng=make_rng(0))
        net = model.net
        before = {n: p.data.copy() for n, p in net.named_parameters()}
        store = ensure_shared_parameters(model)
        for name, param in net.named_parameters():
            assert np.array_equal(param.data, before[name]), name
            assert param.data.base is not None  # a view, not owned storage
        assert store.arena.name in list_segments("w")

    def test_share_is_idempotent(self):
        before = len(list_segments("w"))
        model = build_model("fluid", rng=make_rng(0))
        assert ensure_shared_parameters(model) is ensure_shared_parameters(model)
        assert len(list_segments("w")) == before + 1

    def test_version_slots_live_in_the_segment(self):
        model = build_model("fluid", rng=make_rng(0))
        store = ensure_shared_parameters(model)
        param = next(iter(model.net.parameters()))
        v = param.version
        param.bump_version()
        assert param.version == v + 1
        # The counter is readable straight out of the arena (what a worker
        # process mapping the same segment observes): the version table is
        # the arena's first allocation.
        count = len(list(model.net.parameters()))
        versions = store.arena.view(0, (count,), np.int64)
        assert int(versions[0]) == v + 1

    def test_forward_parity_after_sharing(self):
        model = build_model("fluid", rng=make_rng(0))
        from repro.engine.session import InferenceSession

        x = make_rng(2).standard_normal((2, 1, 28, 28))
        before = InferenceSession(model, "lower50").run(x)
        ensure_shared_parameters(model)
        after = InferenceSession(model, "lower50").run(x)
        assert np.array_equal(before, after)


class TestShmRing:
    def _ring(self, nbytes=4096):
        segment = create_segment(RING_SEGMENT_TAG, nbytes)
        return ShmRing(segment, 0, nbytes)

    def test_place_and_view_round_trip(self):
        ring = self._ring()
        x = make_rng(0).standard_normal((4, 7))
        offset = ring.place(x)
        assert np.array_equal(ring.view(offset, (4, 7), "float64"), x)

    def test_consecutive_placements_reuse_the_base_slot(self):
        segment = create_segment(RING_SEGMENT_TAG, 8192)
        ring = ShmRing(segment, 4096, 4096)
        first = np.arange(256, dtype=np.float64)  # 2048 bytes: two would fit
        second = first[::-1].copy()
        assert ring.place(first) == 4096
        assert ring.place(second) == 4096
        # One batch in flight per ring: the second placement overwrote the first.
        assert np.array_equal(ring.view(4096, (256,), "float64"), second)
        assert ring.place_parts([first[:8].reshape(2, 4)], np.float64) == (4096, 2)

    def test_place_parts_matches_concatenate(self):
        ring = self._ring()
        parts = [
            make_rng(1).standard_normal((2, 3)),
            make_rng(2).standard_normal((1, 3)),
        ]
        offset, rows = ring.place_parts(parts, np.float64)
        assert rows == 3
        stacked = ring.view(offset, (3, 3), "float64")
        assert np.array_equal(stacked, np.concatenate(parts, axis=0))

    def test_oversized_placement_raises(self):
        ring = self._ring(256)
        with pytest.raises(MemoryError):
            ring.place(np.zeros(4096))

    @pytest.mark.parametrize(
        "offset, shape",
        [
            (0, (8,)),           # the neighbouring ring, below this one
            (4096 - 8, (2,)),    # starts inside, ends below the base
            (8192 - 8, (2,)),    # starts inside, runs past the end
            (8192, (1,)),        # the rest of the segment
            (4096, (513,)),      # more rows than the ring holds
            (4096, (-1, 4)),     # a negative extent
            (4096, (-2, -2)),    # ... whose product looks like a size
            (-8, (1,)),          # numpy would count this from the segment's end
            (4096, (2**62, 4)),  # a byte count that overflows int64
        ],
    )
    def test_view_refuses_a_placement_outside_its_own_region(self, offset, shape):
        segment = create_segment(RING_SEGMENT_TAG, 3 * 4096)
        ring = ShmRing(segment, 4096, 4096)
        with pytest.raises(ValueError, match="outside the ring"):
            ring.view(offset, shape, "float64")
        # The whole region, and nothing of it, are both inside.
        assert ring.view(4096, (512,), "float64").nbytes == ring.capacity
        assert ring.view(8192, (0, 4), "float64").size == 0

    def test_view_maps_only_allowlisted_dtype_strings(self):
        """The reply's dtype string is the one read: ``"O"`` would map ring
        bytes as object pointers, and ``">f8"`` is named ``"float64"``."""
        ring = self._ring()
        ring.place_parts([np.ones((1, 4))], np.float64)
        names = sorted(k for k in np.sctypeDict if isinstance(k, str))
        descriptors = st.one_of(
            st.sampled_from(sorted(TRANSPORT_DTYPES)),
            st.sampled_from(names),
            st.tuples(st.sampled_from("<>=|"), st.sampled_from(names)).map("".join),
            st.text(max_size=8),
        )

        @given(descriptor=descriptors)
        @settings(max_examples=200, deadline=None)
        def check(descriptor):
            if descriptor in TRANSPORT_DTYPES:
                got = ring.view(0, (4,), descriptor).copy()
                assert got.dtype == np.dtype(descriptor) and got.shape == (4,)
            else:
                with pytest.raises(ValueError, match="not allowed"):
                    ring.view(0, (4,), descriptor)

        check()

    @pytest.mark.parametrize(
        "shape",
        [("4",), (1.9,), (True,), (np.float64(4),), 4, "4"],
        ids=["str-entry", "float-entry", "bool-entry", "numpy-float-entry", "int", "str"],
    )
    def test_view_refuses_a_shape_of_non_ints(self, shape):
        ring = self._ring()
        with pytest.raises(ValueError, match="shape"):
            ring.view(0, shape, "float64")


class TestLifecycle:
    def test_unlink_created_segments_is_a_leak_backstop(self):
        before = len(list_segments())
        create_segment(RING_SEGMENT_TAG, 1024)
        create_segment(RING_SEGMENT_TAG, 1024)
        assert len(list_segments()) == before + 2
        assert unlink_created_segments() >= 2
        assert len(list_segments()) == before

    def test_unlink_is_idempotent(self):
        create_segment(RING_SEGMENT_TAG, 1024)
        unlink_created_segments()
        assert unlink_created_segments() == 0

    def test_forked_child_never_unlinks_parent_segments(self):
        segment = create_segment(RING_SEGMENT_TAG, 1024)
        pid = os.fork()
        if pid == 0:  # child: the registry pid-guard must make this a no-op
            unlink_created_segments()
            os._exit(0)
        os.waitpid(pid, 0)
        assert segment.name in list_segments(RING_SEGMENT_TAG)

    def test_sigterm_unlinks_segments_in_a_child(self):
        import signal

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child creates a segment, reports it, waits for SIGTERM
            os.close(read_fd)
            from repro.nn import shm

            with shm._registry_lock:
                shm._hooks_installed = False  # fork inherited the parent flag
            segment = create_segment(RING_SEGMENT_TAG, 1024)
            os.write(write_fd, segment.name.encode())
            os.close(write_fd)
            while True:
                signal.pause()
        os.close(write_fd)
        name = os.read(read_fd, 256).decode()
        os.close(read_fd)
        assert name in list_segments(RING_SEGMENT_TAG)
        os.kill(pid, signal.SIGTERM)
        os.waitpid(pid, 0)
        assert name not in list_segments(RING_SEGMENT_TAG)

    def test_segments_of_a_killed_creator_are_reaped(self):
        import signal

        live = create_segment(RING_SEGMENT_TAG, 1024)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child creates a segment, reports it, dies with no hook run
            os.close(read_fd)
            segment = create_segment(RING_SEGMENT_TAG, 1024)
            os.write(write_fd, segment.name.encode())
            os.close(write_fd)
            os.kill(os.getpid(), signal.SIGKILL)
        os.close(write_fd)
        name = os.read(read_fd, 256).decode()
        os.close(read_fd)
        os.waitpid(pid, 0)
        assert name in list_segments(RING_SEGMENT_TAG)  # SIGKILL leaked it
        assert reap_orphaned_segments() >= 1
        assert name not in list_segments(RING_SEGMENT_TAG)
        assert live.name in list_segments(RING_SEGMENT_TAG)  # its creator lives
