"""Executor abstraction: serial inline execution vs a persistent thread pool.

Work units handed to :meth:`Executor.run_batch` must be *pure* top-level
functions of their arguments (no fault-injection draws, no clock state) —
the executor guarantees only that every unit runs exactly once and that
results come back **in task order**, which is what makes ``workers=N``
bit-identical to ``workers=1``.

Two executors satisfy the protocol, chosen by the worker count alone:

* :class:`SerialExecutor` — inline execution at one worker;
* :class:`~repro.parallel.threads.ThreadExecutor` — a persistent thread
  pool sharing the parent's address space, the caller working as one of
  its threads (zero-copy; the compiled kernels release the GIL).

Both also offer :meth:`Executor.submit_batch` — the *asynchronous* half
of the protocol: it returns a :class:`BatchHandle` whose
:meth:`~BatchHandle.result` gathers the ordered results later.  The
SUMMA engine submits each multiply's block columns through it, one task
per block column.

Nested parallelism is guarded: inside a pool task, :func:`get_executor`
always returns the serial executor, so a parallelized kernel calling
another parallelized kernel degrades to inline execution instead of
fanning out a pool per worker.
"""

from __future__ import annotations

import atexit
import os
import threading

from ..trace import current_tracer

#: ``_TLS.in_worker`` is True while the current thread is executing a
#: :class:`ThreadExecutor` task — the nested-parallelism guard.
_TLS = threading.local()


def in_worker() -> bool:
    """True while this thread runs an executor pool task."""
    return getattr(_TLS, "in_worker", False)


def enter_thread_worker() -> None:
    """Mark the current thread as a pool worker (ThreadExecutor tasks)."""
    _TLS.in_worker = True


def exit_thread_worker() -> None:
    """Clear the current thread's worker mark."""
    _TLS.in_worker = False


def resolve_workers(workers=None) -> int:
    """Resolve a worker count: explicit value > ``REPRO_WORKERS`` > 1.

    ``"auto"`` (or 0) means one worker per usable core.  Anything that is
    not a non-negative integer or ``"auto"`` raises ``ValueError``.
    """
    if workers is None:
        workers = os.environ.get("REPRO_WORKERS", "").strip() or 1
    if isinstance(workers, str):
        if workers.lower() == "auto":
            workers = 0
        else:
            try:
                workers = int(workers)
            except ValueError:
                raise ValueError(
                    f"workers must be a non-negative integer or 'auto', "
                    f"got {workers!r}"
                ) from None
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:  # auto
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without affinity masks
            workers = os.cpu_count() or 1
    return max(1, workers)


class BatchHandle:
    """Deferred results of one :meth:`Executor.submit_batch` call.

    ``result()`` returns the ordered list (same order as the submitted
    tasks) and may be called at most once; implementations block until
    every task has finished.
    """

    def result(self) -> list:  # pragma: no cover - interface
        raise NotImplementedError


def _task_meta(label, attrs, index: int):
    """The per-task span attributes recorded when tracing."""
    meta = dict(attrs) if attrs else {}
    if label:
        meta["label"] = label
    meta["task"] = index
    return meta


class _ReadyBatch(BatchHandle):
    """A batch that is computed lazily at gather time (serial executor).

    Deferring to :meth:`result` keeps the serial memory profile identical
    to the plain inline loop — nothing is resident before the caller asks.
    """

    def __init__(self, fn, tasks, label=None, attrs=None):
        self._fn = fn
        self._tasks = tasks
        self._label = label
        self._attrs = attrs

    def result(self) -> list:
        fn = self._fn
        tracer = current_tracer()
        if tracer is None:
            return [fn(*task) for task in self._tasks]
        name = getattr(fn, "__name__", "task")
        out = []
        for i, task in enumerate(self._tasks):
            with tracer.span(
                name, "executor", **_task_meta(self._label, self._attrs, i)
            ):
                out.append(fn(*task))
        return out


class SerialExecutor:
    """Inline execution — the one-worker executor, zero overhead."""

    workers = 1

    def run_batch(self, fn, tasks, label=None, attrs=None):
        """Run ``fn(*task)`` for every task, in order."""
        return self.submit_batch(fn, tasks, label=label, attrs=attrs).result()

    def submit_batch(self, fn, tasks, label=None, attrs=None) -> BatchHandle:
        """Defer the batch; it runs inline when ``result()`` is called."""
        return _ReadyBatch(fn, list(tasks), label, attrs)

    def close(self):
        pass

    def __repr__(self):
        return "SerialExecutor()"


_SERIAL = SerialExecutor()
_thread_executors: dict[int, object] = {}


def get_executor(workers=None, backend=None):
    """The executor for a worker count (thread pools are cached).

    Serial when the resolved count is 1 or when called from inside a
    pool task (the nested-parallelism guard); otherwise the cached
    ``ThreadExecutor(count)``.  ``backend`` is accepted only as ``None``:
    the process backend is gone and the worker count alone chooses.
    """
    if backend is not None:
        raise ValueError(
            f"backend={backend!r}: the process backend was removed and "
            "the worker count alone chooses the executor (workers=1 is "
            "serial, more is the thread pool); pass backend=None"
        )
    count = resolve_workers(workers)
    if count <= 1 or in_worker():
        return _SERIAL
    ex = _thread_executors.get(count)
    if ex is None:
        from .threads import ThreadExecutor

        ex = _thread_executors[count] = ThreadExecutor(count)
    return ex


def shutdown_executors() -> None:
    """Close every cached thread pool."""
    for ex in _thread_executors.values():
        ex.close()


atexit.register(shutdown_executors)
