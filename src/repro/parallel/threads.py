"""Thread-pool executor: the pool every ``workers > 1`` run uses.

A :class:`ThreadExecutor` runs pure work units inside the parent's
address space, so

* task arguments and results cross **zero-copy** — no transport, no
  pickling;
* the identity-keyed caches (``column_lengths``, :func:`repro.perf.cache.
  memo`, the memoized DCSC conversions) warmed by a worker are warm for
  the parent too — the single-flight discipline in
  :mod:`repro.perf.cache` keeps concurrent builders from duplicating
  work;
* the useful parallelism comes from the compiled kernels releasing the
  GIL (the Nagasaka et al. observation that shared-memory threading is
  where single-node SpGEMM headroom lives); pure-Python stretches
  serialize, so the unit of work should be coarse — the SUMMA engine
  submits one task per block column (its q blocks, then its prune), and
  ``hipmcl`` one per block column of the inflation.

**The caller is one of the workers.**  ``ThreadExecutor(n)`` starts
``n − 1`` pool threads; :meth:`_ThreadBatch.result` runs every task no
pool thread has started yet inline, cancelling the pending futures from
the back while the pool works from the front.  ``n`` threads compute,
and the waiting caller costs no idle thread (nor the malloc arena a
thread of its own would keep resident).

Determinism is inherited from the protocol: results are gathered in task
order, every fault draw and clock charge stays in the caller, so
``workers=N`` is bit-identical to serial.  A task that raises —
inline or on a pool thread — does not stop the batch: ``result()`` waits
for every started task, then raises the first failure in task order (the
one a serial loop would have raised).  The nested guard marks each
thread while it runs a task (``executor.enter_thread_worker``), making
any executor requested from inside a task serial.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..trace import current_tracer, worker_lane_name
from .executor import (
    BatchHandle,
    _ReadyBatch,
    _task_meta,
    enter_thread_worker,
    exit_thread_worker,
)


def _run_task(fn, args, meta=None):
    """Task entry point, on a pool thread or the gathering caller: mark
    the thread, run, unmark.

    Tasks share the parent's tracer directly; ``meta`` (set only when the
    parent was tracing at submit time) makes the task record its span in
    this thread's own lane.
    """
    enter_thread_worker()
    try:
        tracer = current_tracer() if meta is not None else None
        if tracer is None:
            return fn(*args)
        tracer.set_lane(worker_lane_name())
        try:
            with tracer.span(
                getattr(fn, "__name__", "task"), "executor", **meta
            ):
                return fn(*args)
        finally:
            tracer.set_lane(None)
    finally:
        exit_thread_worker()


class _ThreadBatch(BatchHandle):
    """One thread-pool batch: its futures, and the payloads of the share
    the caller runs itself."""

    def __init__(self, futures, payloads):
        self._futures = futures
        self._payloads = payloads
        #: ``(ok, result or exception)`` per task, once gathered.
        self._outcomes = None

    def result(self) -> list:
        if self._outcomes is None:
            futures = self._futures
            inline = [None] * len(futures)
            # The pool takes tasks from the front; the caller runs every
            # one no thread has started, from the back, so the two meet.
            for index in reversed(range(len(futures))):
                if futures[index].cancel():
                    inline[index] = _outcome(
                        _run_task, *self._payloads[index]
                    )
            self._outcomes = [
                mine or _outcome(future.result)
                for mine, future in zip(inline, futures)
            ]
            self._payloads = None
        for ok, value in self._outcomes:
            if not ok:
                raise value
        return [value for _ok, value in self._outcomes]


def _outcome(fn, *args) -> tuple:
    """``(True, fn(*args))``, or ``(False, exception)`` if it raised."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


class ThreadExecutor:
    """A ``workers``-thread pool: ``workers − 1`` persistent threads plus
    the caller, with zero-copy task passing.

    The pool is created lazily on the first batch, reused across batches,
    and restarts lazily after :meth:`close`.  Pool threads share the
    parent's address space (matrix caches included), so tasks and results
    pass by reference; the caller runs its share of every batch when it
    gathers it.
    """

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError(
                f"ThreadExecutor needs >= 2 workers, got {workers} "
                "(use SerialExecutor)"
            )
        self.workers = workers
        self._pool = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers - 1,
                thread_name_prefix="repro-worker",
            )
        return self._pool

    def submit_batch(self, fn, tasks, label=None, attrs=None) -> BatchHandle:
        """Dispatch the batch to the pool threads; the caller runs what
        they have not started when it calls ``result()``."""
        tasks = list(tasks)
        if not tasks:
            return _ReadyBatch(fn, [])
        tracing = current_tracer() is not None
        payloads = [
            (fn, task, _task_meta(label, attrs, i) if tracing else None)
            for i, task in enumerate(tasks)
        ]
        pool = self._ensure_pool()
        return _ThreadBatch(
            [pool.submit(_run_task, *p) for p in payloads], payloads
        )

    def run_batch(self, fn, tasks, label=None, attrs=None):
        """Run ``fn(*task)`` for every task across the pool, in order."""
        return self.submit_batch(fn, tasks, label=label, attrs=attrs).result()

    def close(self):
        """Shut the pool down; the executor stays usable (lazy restart)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __repr__(self):
        state = "live" if self._pool is not None else "idle"
        return f"ThreadExecutor(workers={self.workers}, {state})"
