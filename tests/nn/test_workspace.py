"""Tests for workspace arenas and the checkout pool."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.workspace import BufferSpec, WorkspacePool, buffer_layout, buffer_layouts
from tests.nn.arenas import checked_out

SPECS = [
    BufferSpec("a", (4, 3), "float32"),
    BufferSpec("pad", (2, 2, 6, 6), "float32", zeroed=True),
]


def workspace(specs):
    """A workspace over an arena set of its own."""
    return WorkspacePool(specs, prealloc=0).acquire()


class TestBufferSpec:
    def test_rejects_bad_shapes_and_names(self):
        with pytest.raises(ValueError):
            BufferSpec("", (2,), "float32")
        with pytest.raises(ValueError):
            BufferSpec("x", (0, 3), "float32")

    def test_nbytes(self):
        assert BufferSpec("x", (4, 3), "float32").nbytes == 48

    def test_rejects_lifetimes_that_are_not_intervals(self):
        for live in ((3, 2), (-1, 0)):
            with pytest.raises(ValueError):
                BufferSpec("x", (2,), "float32", live=live)


class TestWorkspace:
    def test_buffers_have_spec_shapes_and_dtypes(self):
        ws = workspace(SPECS)
        assert ws["a"].shape == (4, 3) and ws["a"].dtype == np.float32
        assert "pad" in ws and "missing" not in ws

    def test_zeroed_buffers_start_zero(self):
        ws = workspace(SPECS)
        np.testing.assert_array_equal(ws["pad"], np.zeros((2, 2, 6, 6)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            workspace([BufferSpec("a", (1,), "float64"), BufferSpec("a", (2,), "float64")])

    def test_one_workspace_is_two_allocations_and_scratch_is_not_cleared(self, monkeypatch):
        specs = [
            BufferSpec("pad", (2, 2, 6, 6), "float32", zeroed=True),
            BufferSpec("cols", (300, 300), "float64", live=(0, 1)),
            BufferSpec("gemm", (300, 40), "float64", live=(1, 2)),
            BufferSpec("act", (40, 300), "float64", live=(2, 3)),
            BufferSpec("logits", (4, 10), "float64"),
        ]
        zeroed_bytes = []
        zeros = np.zeros
        monkeypatch.setattr(
            np, "zeros", lambda n, **kw: zeroed_bytes.append(n) or zeros(n, **kw)
        )
        pool = WorkspacePool(specs, prealloc=0)
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(arrays)
            ws = pool.acquire()
            after = tracemalloc.take_snapshot().filter_traces(arrays)
        finally:
            tracemalloc.stop()
        blocks = [d for d in after.compare_to(before, "traceback") if d.count_diff]
        assert sum(d.count_diff for d in blocks) == 2
        assert sorted(d.size_diff for d in blocks) == sorted(
            [ws.persistent.nbytes, ws.scratch.nbytes]
        )
        # Only the persistent region is asked for cleared memory: a cleared
        # scratch region would be a memset of the whole arena on every build.
        assert zeroed_bytes == [ws.persistent.nbytes]
        assert ws.nbytes == ws.persistent.nbytes + ws.scratch.nbytes < sum(
            s.nbytes for s in specs
        )

    def test_buffers_without_a_lifetime_keep_bytes_of_their_own(self):
        specs = [BufferSpec(n, (5, 7), "float64") for n in "abc"]
        ws = workspace(specs)
        assert ws.scratch.nbytes == 0
        for k, name in enumerate("abc"):
            ws[name][...] = k
        for k, name in enumerate("abc"):
            np.testing.assert_array_equal(ws[name], np.full((5, 7), float(k)))


def _aligned(nbytes):
    return -(-nbytes // 64) * 64


_LIFETIMES = st.none() | st.tuples(st.integers(0, 9), st.integers(0, 9)).map(sorted).map(tuple)
_BUFFERS = st.lists(
    st.tuples(
        st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
        st.sampled_from(["float64", "float32", "uint8"]),
        st.booleans(),
        _LIFETIMES,
    ),
    max_size=12,
)


class TestLifetimePlacement:
    """Two buffers share bytes only if they are never alive together."""

    @given(_BUFFERS)
    def test_placement_is_sound_aligned_and_bounded(self, buffers):
        specs = [
            BufferSpec(f"b{k}", shape, dtype, zeroed, live)
            for k, (shape, dtype, zeroed, live) in enumerate(buffers)
        ]
        ws = workspace(specs)
        regions = {True: ws.persistent, False: ws.scratch}
        spans = {}
        for spec in specs:
            view, region = ws[spec.name], regions[spec.persistent]
            assert view.shape == spec.shape and view.dtype == spec.dtype
            start = view.ctypes.data - region.ctypes.data
            assert start % 64 == 0 and 0 <= start and start + view.nbytes <= region.nbytes
            spans[spec.name] = (spec.persistent, start, start + view.nbytes)
        for i, a in enumerate(specs):
            for b in specs[i + 1 :]:
                together = (
                    a.persistent
                    or b.persistent
                    or (a.live[0] <= b.live[1] and b.live[0] <= a.live[1])
                )
                (pa, lo_a, hi_a), (pb, lo_b, hi_b) = spans[a.name], spans[b.name]
                shares = pa == pb and lo_a < hi_b and lo_b < hi_a
                assert not (together and shares), (a, b)
        whole_run = sum(s.nbytes for s in specs if s.persistent)
        transients = [s for s in specs if not s.persistent]
        peak = max(
            sum(s.nbytes for s in transients if s.live[0] <= step <= s.live[1])
            for step in range(10)
        )
        assert whole_run + peak <= ws.nbytes <= sum(_aligned(s.nbytes) for s in specs)
        assert WorkspacePool(specs, prealloc=0).workspace_nbytes == ws.nbytes

    def test_disjoint_lifetimes_do_share(self):
        specs = [
            BufferSpec("early", (100,), "float64", live=(0, 1)),
            BufferSpec("late", (60,), "float64", live=(2, 3)),
            BufferSpec("both", (10,), "float64", live=(1, 2)),
        ]
        ws = workspace(specs)
        assert np.shares_memory(ws["early"], ws["late"])
        assert not np.shares_memory(ws["both"], ws["early"])
        assert not np.shares_memory(ws["both"], ws["late"])
        assert ws.nbytes == _aligned(800) + _aligned(80)


class TestWorkspacePool:
    def test_serial_checkouts_reuse_one_workspace(self):
        pool = WorkspacePool(SPECS, prealloc=1)
        seen = set()
        for _ in range(10):
            with checked_out(pool) as ws:
                seen.add(id(ws))
        assert len(seen) == 1
        assert pool.created == 1
        assert pool.checkouts == 10

    def test_grows_only_to_the_concurrency_peak(self):
        pool = WorkspacePool(SPECS, prealloc=1)
        a = pool.acquire()
        b = pool.acquire()  # second concurrent holder -> one new allocation
        assert pool.created == 2
        pool.release(a)
        pool.release(b)
        for _ in range(5):
            with checked_out(pool):
                pass
        assert pool.created == 2  # steady state: no further allocations

    def test_concurrent_checkouts_get_distinct_workspaces(self):
        pool = WorkspacePool(SPECS, prealloc=2)
        ids = []
        barrier = threading.Barrier(4)
        lock = threading.Lock()

        def worker():
            barrier.wait()
            with checked_out(pool) as ws:
                with lock:
                    ids.append(id(ws))
                barrier.wait()  # hold until everyone checked out

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == 4  # no two concurrent holders shared scratch


class TestWorkspaceNbytes:
    def test_pool_reports_per_workspace_footprint(self):
        specs = [
            BufferSpec("a", (4, 8), "float64"),
            BufferSpec("b", (16,), "float32", zeroed=True),
        ]
        pool = WorkspacePool(specs, prealloc=1)
        expected = 4 * 8 * 8 + 16 * 4
        assert pool.workspace_nbytes == expected
        with checked_out(pool) as ws:
            assert ws.nbytes == expected


def _width(channels, dtype="float64", rows=2, hw=6):
    """A synthetic width's buffers: a padded input arena, a transient, logits."""
    return [
        BufferSpec("in0", (rows, channels, hw, hw), dtype, zeroed=True),
        BufferSpec("cols", (rows * 16, channels * 9), dtype, live=(0, 1)),
        BufferSpec("logits", (rows, 3), dtype),
    ]


class TestSharedPool:
    """One pool over several layouts: arena sets sized to the largest."""

    def test_zeroed_arenas_keep_one_base_and_transients_their_own_place(self):
        narrow, wide = _width(2), _width(5)
        pool = WorkspacePool(narrow, wide)
        readers = [pool.for_layout(0), pool.for_layout(1)]
        with checked_out(readers[0]) as a:
            pass
        with checked_out(readers[1]) as b:
            pass
        assert pool.created == 1 and a.persistent is b.persistent and a.scratch is b.scratch
        assert a["in0"].ctypes.data == b["in0"].ctypes.data
        assert a["in0"].shape[1] == 2 and b["in0"].shape[1] == 5
        assert not np.shares_memory(b["in0"], b["logits"])
        assert not np.shares_memory(b["in0"], a["logits"])
        assert pool.workspace_nbytes == a.nbytes == buffer_layout(tuple(wide)).nbytes
        assert [r.created for r in readers] == [1, 1]

    def test_one_layout_is_placed_as_alone(self):
        specs = tuple(_width(3))
        assert buffer_layouts((specs,)) == (buffer_layout(specs),)

    def test_a_zeroed_arena_may_differ_in_its_channel_dim_only(self):
        WorkspacePool(_width(2), _width(7))
        for other in (
            _width(2, dtype="float32"),
            _width(2, rows=3),
            _width(2, hw=8),
            [BufferSpec("in0", (2, 2, 36), "float64", zeroed=True)],
            [BufferSpec("in0", (2, 2, 6, 6), "float64")],  # kept, but not zeroed
        ):
            with pytest.raises(ValueError, match="'in0'"):
                WorkspacePool(_width(2), other)

    def test_a_name_zeroed_in_one_layout_and_transient_in_another_is_fine(self):
        transient = [BufferSpec("in0", (4, 4), "float32", live=(0, 0))]
        pool = WorkspacePool(_width(2), transient)
        with checked_out(pool.for_layout(1)) as ws:
            assert np.shares_memory(ws["in0"], ws.scratch)
