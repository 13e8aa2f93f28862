"""The execution layer's contracts: worker resolution, the thread pool,
batch ordering, failure propagation and the nested-parallelism guard.

Everything here runs real pool threads (two or three workers, tiny
tasks), not a mock, while staying fast enough for tier 1.
"""

import os
import threading
import time

import pytest

from repro.parallel import (
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    in_worker,
    resolve_workers,
    shutdown_executors,
)
from repro.parallel import executor as executor_mod


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


# ---------------------------------------------------------------------------
# Worker-count resolution
# ---------------------------------------------------------------------------


class TestResolveWorkers:
    def test_default_is_serial(self):
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3
        assert resolve_workers() == 8

    def test_string_values_accepted(self, monkeypatch):
        assert resolve_workers("5") == 5
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert resolve_workers() == 1  # blank env falls through to serial

    def test_auto_resolves_to_usable_cores(self):
        cores = len(os.sched_getaffinity(0))
        assert resolve_workers("auto") == max(1, cores)
        assert resolve_workers(0) == max(1, cores)

    @pytest.mark.parametrize("bad", [-1, "-2", "many", "1.5"])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


# ---------------------------------------------------------------------------
# Executor selection and lifecycle
# ---------------------------------------------------------------------------


class TestGetExecutor:
    def test_serial_for_one_worker(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert get_executor(1) is get_executor(None)

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert get_executor().workers == 2

    @pytest.mark.parametrize("backend", ["thread", "process", "serial"])
    def test_backend_argument_must_be_none(self, backend):
        # Kept only for callers that still forward a second argument:
        # any value names the removed process backend.
        assert get_executor(2, None) is get_executor(2)
        with pytest.raises(ValueError, match="process backend"):
            get_executor(2, backend)


class TestSerialExecutor:
    def test_runs_inline_in_order(self):
        ex = SerialExecutor()
        assert ex.workers == 1
        out = ex.run_batch(pow, [(2, 3), (3, 2)])
        assert out == [8, 9]
        ex.close()  # no-op


def _thread_slowly():
    time.sleep(0.05)  # long enough for every pool thread to take a task
    return threading.current_thread()


def _call(fn):
    return fn()


def probe_state():
    """The calling thread's view of the nested-parallelism guard."""
    return {
        "pid": os.getpid(),
        "in_worker": in_worker(),
        "nested_executor": type(get_executor(4)).__name__,
    }


class TestThreadExecutor:
    def test_selected_by_backend_and_cached(self):
        # The worker count alone selects the pool: one per count.
        ex = get_executor(2)
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers == 2
        assert get_executor(2) is ex
        assert get_executor(3) is not ex

    def test_environment_selects_thread_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert isinstance(get_executor(), ThreadExecutor)

    def test_rejects_single_worker(self):
        with pytest.raises(ValueError, match=">= 2"):
            ThreadExecutor(1)

    def test_batch_results_in_task_order(self):
        ex = get_executor(2)
        assert ex.run_batch(pow, [(i, 2) for i in range(10)]) == [
            i * i for i in range(10)
        ]
        assert ex.run_batch(pow, []) == []

    def test_zero_copy_same_process(self):
        # The thread pool's whole point: tasks see the parent's objects,
        # no transport, no pickling.
        ex = get_executor(2)
        states = ex.run_batch(probe_state, [()] * 4)
        assert all(s["pid"] == os.getpid() for s in states)
        payload = {"marker": object()}
        (echoed,) = ex.run_batch(dict.get, [(payload, "marker")])
        assert echoed is payload["marker"]

    def test_close_then_reuse_restarts_lazily(self):
        ex = get_executor(2)
        assert ex.run_batch(pow, [(2, 2)]) == [4]
        ex.close()
        assert ex._pool is None
        assert ex.run_batch(pow, [(2, 5)]) == [32]

    def test_nested_request_inside_thread_worker_degrades(self):
        # A pool task asking for a pool gets the serial executor, on a
        # pool thread and on the caller running its share alike.
        ex = get_executor(2)
        states = ex.run_batch(probe_state, [()] * 4)
        for state in states:
            assert state["in_worker"] is True
            assert state["nested_executor"] == "SerialExecutor"
        # The guard is thread-local: once the batch is done, the parent
        # thread is unaffected.
        me = probe_state()
        assert me["in_worker"] is False
        assert me["nested_executor"] == "ThreadExecutor"

    def test_task_error_propagates(self):
        ex = get_executor(2)
        with pytest.raises(ZeroDivisionError):
            ex.run_batch(divmod, [(1, 0)])
        assert ex.run_batch(pow, [(2, 4)]) == [16]  # pool still healthy

    def test_caller_is_one_of_the_workers(self):
        ex = ThreadExecutor(3)
        try:
            ran = ex.run_batch(_thread_slowly, [()] * 6)
            pool_threads = set(ex._pool._threads)
            assert len(pool_threads) == 2  # workers - 1
            assert set(ran) <= pool_threads | {threading.current_thread()}
            # The pool works from the front; the caller took the back.
            assert ran[-1] is threading.current_thread()
        finally:
            ex.close()

    def test_failure_waits_for_every_started_task(self):
        # Task 0 starts on the pool thread and holds it; task 1 runs on
        # the caller and raises.  result() still waits for task 0.
        ex = ThreadExecutor(2)
        started, release, finished = (
            threading.Event(), threading.Event(), []
        )

        def slow():
            started.set()
            release.wait(5)
            time.sleep(0.05)
            finished.append(threading.current_thread())

        def failing():
            started.wait(5)
            release.set()
            raise ValueError("inline")

        try:
            with pytest.raises(ValueError, match="inline"):
                ex.run_batch(_call, [(slow,), (failing,)])
            assert len(finished) == 1
            assert finished[0] is not threading.current_thread()
            assert ex.run_batch(pow, [(2, 3)]) == [8]  # next batch works
        finally:
            ex.close()

    def test_first_failure_in_task_order_wins(self):
        # The caller's task fails first in time; the pool's task 0 fails
        # later, and is the one raised — what a serial loop would raise.
        ex = ThreadExecutor(2)
        started, release = threading.Event(), threading.Event()

        def pool_failure():
            started.set()
            release.wait(5)
            time.sleep(0.05)
            raise KeyError("task 0")

        def inline_failure():
            started.wait(5)
            release.set()
            raise ValueError("task 1")

        try:
            with pytest.raises(KeyError, match="task 0"):
                ex.run_batch(_call, [(pool_failure,), (inline_failure,)])
            assert ex.run_batch(pow, [(3, 2)]) == [9]
        finally:
            ex.close()


class TestSubmitBatch:
    def test_serial_handle_is_lazy_and_ordered(self):
        calls = []

        def record(i):
            calls.append(i)
            return i * 10

        handle = SerialExecutor().submit_batch(record, [(0,), (1,)])
        assert calls == []  # nothing ran at submit time
        assert handle.result() == [0, 10]
        assert calls == [0, 1]

    @pytest.mark.parametrize("workers", [2], ids=["thread"])
    def test_pool_handles_overlap_in_flight(self, workers):
        ex = get_executor(workers)
        first = ex.submit_batch(pow, [(i, 2) for i in range(4)])
        second = ex.submit_batch(pow, [(i, 3) for i in range(4)])
        # Gather out of submission order: both batches complete.
        assert second.result() == [i**3 for i in range(4)]
        assert first.result() == [i**2 for i in range(4)]
        assert first.result() == [i**2 for i in range(4)]  # idempotent


def test_module_has_atexit_shutdown():
    """The thread pools must not outlive the interpreter."""
    import atexit

    # Registration happened at import; a second registration is harmless,
    # so just assert the hook is the module's own shutdown function.
    assert executor_mod.shutdown_executors is shutdown_executors
    assert atexit  # smoke: the module imported it for registration
