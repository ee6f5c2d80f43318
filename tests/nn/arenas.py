"""Test helper: hold one of a pool's arena sets for the span of a ``with`` block."""

from contextlib import contextmanager


@contextmanager
def checked_out(pool):
    """``pool.acquire()`` on entry, ``pool.release`` of the same set on exit."""
    workspace = pool.acquire()
    try:
        yield workspace
    finally:
        pool.release(workspace)
