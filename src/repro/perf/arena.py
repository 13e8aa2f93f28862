"""Reusable workspace arena for per-call scratch buffers.

The hash kernel's dense accumulator and the estimator's key gather are
rebuilt on every call; allocating them anew for every one of the
hundreds of calls per MCL run is pure allocator churn.  The arena hands
out grow-only named buffers that
persist across calls: callers slice the first ``n`` elements and must not
assume any particular content (except for :meth:`flags`, which maintains
an all-False invariant — callers reset the entries they touched, turning
an O(capacity) memset into an O(touched) one).
"""

from __future__ import annotations

import threading

import numpy as np


class Arena:
    """Named grow-only scratch buffers."""

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def buffer(self, name: str, n: int, dtype) -> np.ndarray:
        """The first ``n`` elements of the named buffer (contents arbitrary)."""
        buf = self._bufs.get(name)
        if buf is None or len(buf) < n or buf.dtype != np.dtype(dtype):
            cap = max(n, 2 * len(buf) if buf is not None else 0)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[name] = buf
        return buf[:n]

    def flags(self, name: str, n: int) -> np.ndarray:
        """A boolean buffer guaranteed all-False on handout.

        The caller must reset every entry it set to True before the next
        use of the same name (reset-by-index keeps this O(touched)).
        """
        key = f"flags:{name}"
        buf = self._bufs.get(key)
        if buf is None or len(buf) < n:
            cap = max(n, 2 * len(buf) if buf is not None else 0)
            buf = np.zeros(cap, dtype=bool)
            self._bufs[key] = buf
        return buf[:n]

    def release(self) -> None:
        """Drop every buffer (tests / memory pressure)."""
        self._bufs.clear()


_TLS = threading.local()


def global_arena() -> Arena:
    """The calling thread's arena.

    Arena buffers are handed out as raw views with caller-maintained
    invariants (the all-False flags contract), so two threads sharing one
    arena would corrupt each other's scratch mid-kernel.  A run with
    ``workers > 1`` runs kernels on pool threads; giving every thread
    its own arena keeps the zero-allocation reuse *and* the invariants
    without any locking on the hot path.  The main thread's arena is the
    long-lived one; worker arenas die with their threads.
    """
    arena = getattr(_TLS, "arena", None)
    if arena is None:
        arena = _TLS.arena = Arena()
    return arena
