"""Executor abstraction: serial inline execution vs a persistent pool.

Work units handed to :meth:`Executor.run_batch` must be *pure* top-level
functions of their arguments (no fault-injection draws, no clock state) —
the executor guarantees only that every unit runs exactly once and that
results come back **in task order**, which is what makes ``workers=N``
bit-identical to ``workers=1``.

Three backends satisfy the protocol, selected by the ``backend`` axis
(explicit argument > ``REPRO_BACKEND`` > ``"thread"``):

* :class:`SerialExecutor` — inline execution, the identity backend;
* :class:`~repro.parallel.threads.ThreadExecutor` — a persistent thread
  pool sharing the parent's address space, the caller working as one of
  its threads (zero-copy, no transport; the compiled kernels release the
  GIL);
* :class:`ProcessExecutor` — a persistent ``concurrent.futures`` process
  pool that ships CSC blocks through the shared-memory transport of
  :mod:`repro.parallel.shm`.

Every backend also offers :meth:`Executor.submit_batch` — the
*asynchronous* half of the protocol: it returns a :class:`BatchHandle`
whose :meth:`~BatchHandle.result` gathers the ordered results later.
The SUMMA engine submits each multiply's block columns through it, one
task per block column.

Nested parallelism is guarded for **both** pool kinds: inside a process
worker *or* a thread-pool worker, :func:`get_executor` always returns the
serial executor, so a parallelized kernel calling another parallelized
kernel degrades to inline execution instead of fanning out a pool per
worker.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_all_start_methods, get_context

from ..trace import current_tracer, spans_from_dicts
from . import shm

#: True inside a pool worker (set by the pool initializer, inherited by
#: nothing else) — the process half of the nested-parallelism guard.
_IN_WORKER = False

#: Thread half of the guard: ``_TLS.in_worker`` is True while the current
#: *thread* is executing a :class:`ThreadExecutor` task.
_TLS = threading.local()

#: Recognized execution backends (the ``--backend`` axis).
BACKENDS = ("serial", "thread", "process")


class ExecutorError(RuntimeError):
    """A parallel batch could not complete (e.g. a worker died)."""


def in_worker() -> bool:
    """True when this process/thread is an executor pool worker."""
    return _IN_WORKER or getattr(_TLS, "in_worker", False)


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


def resolve_backend(backend=None) -> str:
    """Resolve the backend name: explicit > ``REPRO_BACKEND`` > thread.

    ``"serial"`` forces inline execution regardless of the worker count;
    ``"thread"``/``"process"`` pick the pool kind used when the resolved
    worker count exceeds one.
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "thread"
    backend = str(backend).lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; options: {list(BACKENDS)}"
        )
    return backend


class BatchHandle:
    """Deferred results of one :meth:`Executor.submit_batch` call.

    ``result()`` returns the ordered list (same order as the submitted
    tasks) and may be called at most once; implementations block until
    every task has finished.
    """

    def result(self) -> list:  # pragma: no cover - interface
        raise NotImplementedError


def _task_meta(label, attrs, index: int):
    """The per-task span attributes shipped to workers when tracing."""
    meta = dict(attrs) if attrs else {}
    if label:
        meta["label"] = label
    meta["task"] = index
    return meta


def _describe_task(fn, label, index: int, total: int) -> str:
    """Human-readable identity of one work item (ExecutorError messages)."""
    name = getattr(fn, "__name__", str(fn))
    where = f" of {label!r}" if label else ""
    return f"task #{index}/{total}{where} ({name})"


class _ReadyBatch(BatchHandle):
    """A batch that is computed lazily at gather time (serial backend).

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
    """Inline execution — the identity backend, zero overhead."""

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


def _worker_init() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    shm.reset_after_fork()  # segments stay owned by the parent


def _run_task(payload):
    """Pool entry point: import args, run, export.

    ``meta`` is ``None`` when the parent was not tracing at submit time;
    otherwise the worker records its own spans (task body, shm import and
    export) in a private tracer whose serialized spans travel back with
    the result and are stitched into the parent trace at gather.
    """
    fn, args, meta = payload
    if meta is None:
        return shm.export_result(fn(*shm.import_value(args))), None
    from ..trace import Tracer, activate, worker_lane_name

    tracer = Tracer(lane=worker_lane_name())
    with activate(tracer):
        with tracer.span(getattr(fn, "__name__", "task"), "executor", **meta):
            with tracer.span("shm_import", "shm"):
                real_args = shm.import_value(args)
            out = fn(*real_args)
            with tracer.span("shm_export", "shm"):
                exported = shm.export_result(out)
    return exported, [s.to_dict() for s in tracer.spans]


class _ProcessBatch(BatchHandle):
    """In-flight futures of one process-pool batch.

    Holds the submitted task arguments until :meth:`result` returns: a
    parent-exported segment is unlinked when its matrix is collected, so
    a matrix only the batch refers to must outlive every worker's attach.
    """

    def __init__(
        self, executor: "ProcessExecutor", fn, futures, tasks, label=None
    ):
        self._executor = executor
        self._fn = fn
        self._futures = futures
        self._tasks = tasks
        self._label = label

    def result(self) -> list:
        results = []
        index = -1
        try:
            for index, f in enumerate(self._futures):
                results.append(f.result())
        except BrokenProcessPool as exc:
            self._executor._discard_pool()
            fn = self._fn
            failed = _describe_task(
                fn, self._label, max(index, 0), len(self._futures)
            )
            raise ExecutorError(
                f"a pool worker died while running "
                f"{getattr(fn, '__name__', fn)!r} over "
                f"{len(self._futures)} task(s); first failure at {failed}; "
                f"the pool has been discarded and will restart on the next "
                f"batch (retry with REPRO_WORKERS=1 to bisect)"
            ) from exc
        self._tasks = None  # every worker has attached and finished
        self._executor._note_success()
        tracer = current_tracer()
        out = []
        for value, spans in results:
            if spans and tracer is not None:
                tracer.graft(spans_from_dicts(spans))
            out.append(shm.import_result(value))
        return out


#: Consecutive pool crashes (no intervening successful batch) tolerated
#: before the lazy-restart path gives up and turns terminal.
MAX_POOL_RESTARTS = 3

#: Base delay of the exponential restart backoff (seconds); restart k
#: after a crash streak waits ``RESTART_BACKOFF_SECONDS * 2**(k-1)``.
RESTART_BACKOFF_SECONDS = 0.05


class ProcessExecutor:
    """A persistent ``workers``-process pool with shared-memory transport.

    The pool is created lazily on the first batch and reused until
    :meth:`close`; a batch after ``close`` (or after a worker crash broke
    the pool) transparently starts a fresh pool.  Restarting is **not**
    unconditional: ``max_restarts`` consecutive crashes without one
    successful batch in between escalate to a *terminal*
    :class:`ExecutorError` — a pool that dies every time it is rebuilt
    (OOM killer, broken native library) must stop burning restarts and
    surface, not loop forever.  Each restart in a crash streak waits an
    exponentially growing backoff first; a successful batch resets the
    streak, and :meth:`reset` re-arms a terminal executor explicitly.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_restarts: int = MAX_POOL_RESTARTS,
        restart_backoff: float = RESTART_BACKOFF_SECONDS,
    ):
        if workers < 2:
            raise ValueError(
                f"ProcessExecutor needs >= 2 workers, got {workers} "
                "(use SerialExecutor)"
            )
        if max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        self.workers = workers
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self._pool = None
        #: Pool crashes since the last successful batch (or reset).
        self._crash_streak = 0

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._crash_streak > self.max_restarts:
                raise ExecutorError(
                    f"worker pool crashed {self._crash_streak} consecutive "
                    f"times without a successful batch; giving up after "
                    f"{self.max_restarts} restart(s) — this is no longer a "
                    "transient (suspect OOM kills or a broken native "
                    "dependency; call reset() to re-arm, or run with "
                    "REPRO_WORKERS=1)"
                )
            if self._crash_streak > 0 and self.restart_backoff > 0:
                # Exponential backoff before rebuilding a pool that just
                # crashed: restart k in a streak waits base * 2**(k-1).
                import time as _t

                _t.sleep(
                    self.restart_backoff * 2 ** (self._crash_streak - 1)
                )
            method = (
                "fork" if "fork" in get_all_start_methods() else "spawn"
            )
            if method == "fork":
                # Start the resource tracker *before* forking so every
                # worker inherits the same tracker process.  Otherwise a
                # pool forked before the first segment exists leaves each
                # worker to spawn a private tracker whose registrations
                # the parent's unlinks never retire (exit-time ENOENT
                # warnings).
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context(method),
                initializer=_worker_init,
            )
        return self._pool

    def _discard_pool(self) -> None:
        # A worker died (OOM-killed, segfault, os._exit) — the pool is
        # unusable; drop it so the next batch starts fresh, and extend
        # the crash streak that bounds how many fresh starts remain.
        self._pool = None
        self._crash_streak += 1

    def _note_success(self) -> None:
        # A batch gathered cleanly: the pool is healthy, forgive the past.
        self._crash_streak = 0

    def reset(self) -> None:
        """Re-arm a terminal executor (clears the crash streak)."""
        self._crash_streak = 0

    def submit_batch(self, fn, tasks, label=None, attrs=None) -> BatchHandle:
        """Dispatch the batch to the pool without waiting for results.

        Exporting the task arguments (the shared-memory slab exports)
        happens *now*, in the caller; the returned handle only gathers.
        """
        tasks = list(tasks)
        tracing = current_tracer() is not None
        payloads = [
            (
                fn,
                shm.export_value(task),
                _task_meta(label, attrs, i) if tracing else None,
            )
            for i, task in enumerate(tasks)
        ]
        if not payloads:
            return _ReadyBatch(fn, [])
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(_run_task, p) for p in payloads]
        except BrokenProcessPool as exc:
            self._discard_pool()
            raise ExecutorError(
                f"the worker pool broke while submitting "
                f"{getattr(fn, '__name__', fn)!r}; it will restart on "
                f"the next batch (retry with REPRO_WORKERS=1 to bisect)"
            ) from exc
        return _ProcessBatch(self, fn, futures, tasks, label)

    def run_batch(self, fn, tasks, label=None, attrs=None):
        """Run ``fn(*task)`` for every task across the pool, in order.

        ``fn`` must be a module-level function.  CSC matrices inside the
        task tuples travel through shared memory; results are gathered in
        task order, so downstream consumption is deterministic.
        """
        return self.submit_batch(fn, tasks, label=label, attrs=attrs).result()

    def close(self):
        """Shut the pool down; the executor stays usable (lazy restart)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __repr__(self):
        state = "live" if self._pool is not None else "idle"
        return f"ProcessExecutor(workers={self.workers}, {state})"


def _thread_executor_cls():
    from .threads import ThreadExecutor

    return ThreadExecutor


#: ``Executor`` is a structural protocol: anything with ``.workers``,
#: ``.run_batch``, ``.submit_batch`` and ``.close``.  The union exists
#: for isinstance checks in tests; :class:`ThreadExecutor` (in
#: :mod:`repro.parallel.threads`) satisfies it too.
Executor = SerialExecutor | ProcessExecutor

_SERIAL = SerialExecutor()
_process_executors: dict[int, ProcessExecutor] = {}
_thread_executors: dict[int, object] = {}


def get_executor(workers=None, backend=None):
    """The executor for a worker count and backend (pools are cached).

    Serial when the resolved count is 1, the resolved backend is
    ``"serial"``, **or** when called from inside any pool worker (the
    nested-parallelism guard covers process and thread workers alike).
    """
    count = resolve_workers(workers)
    kind = resolve_backend(backend)
    if count <= 1 or kind == "serial" or in_worker():
        return _SERIAL
    if kind == "thread":
        ex = _thread_executors.get(count)
        if ex is None:
            ex = _thread_executors[count] = _thread_executor_cls()(count)
        return ex
    ex = _process_executors.get(count)
    if ex is None:
        ex = _process_executors[count] = ProcessExecutor(count)
    return ex


def shutdown_executors() -> None:
    """Close every cached pool and unlink live transport segments."""
    if _IN_WORKER:  # inherited pools and segments belong to the parent
        return
    for ex in _thread_executors.values():
        ex.close()
    for ex in _process_executors.values():
        ex.close()
    shm.shutdown_transport()


atexit.register(shutdown_executors)
