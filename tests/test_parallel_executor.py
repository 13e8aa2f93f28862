"""The execution layer's contracts: resolution, pools, transport, crashes.

Everything here runs the real ``multiprocessing`` machinery (workers=2,
tiny matrices), so the tests certify the actual fork/shared-memory path —
not a mock — while staying fast enough for tier 1.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.parallel import (
    SHM_MIN_BYTES,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    resolve_backend,
    resolve_workers,
    shutdown_executors,
)
from repro.parallel import executor as executor_mod
from repro.parallel import shm
from repro.parallel.work import local_multiply, probe_state
from repro.sparse import random_csc

from helpers import assert_same_csc


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


class TestResolveBackend:
    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)

    def test_default_is_thread(self):
        assert resolve_backend() == "thread"
        assert resolve_backend(None) == "thread"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        assert resolve_backend("process") == "process"
        assert resolve_backend() == "thread"

    @pytest.mark.parametrize("bad", ["threads", "mpi", "2"])
    def test_invalid_backend_rejected(self, bad):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend(bad)


# ---------------------------------------------------------------------------
# Executor selection and lifecycle
# ---------------------------------------------------------------------------


class TestGetExecutor:
    def test_serial_for_one_worker(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert get_executor(1) is get_executor(None)

    def test_process_pools_cached_per_count(self):
        ex2 = get_executor(2, backend="process")
        assert isinstance(ex2, ProcessExecutor)
        assert ex2.workers == 2
        assert get_executor(2, backend="process") is ex2
        assert get_executor(3, backend="process") is not ex2

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert get_executor().workers == 2

    def test_process_executor_rejects_single_worker(self):
        with pytest.raises(ValueError, match=">= 2"):
            ProcessExecutor(1)


class TestSerialExecutor:
    def test_runs_inline_in_order(self):
        ex = SerialExecutor()
        assert ex.workers == 1
        out = ex.run_batch(pow, [(2, 3), (3, 2)])
        assert out == [8, 9]
        ex.close()  # no-op


def _pid_slowly():
    time.sleep(0.05)  # long enough for both workers to pick up tasks
    return os.getpid()


def _thread_slowly():
    time.sleep(0.05)  # long enough for every pool thread to take a task
    return threading.current_thread()


def _call(fn):
    return fn()


class TestProcessExecutor:
    def test_batch_results_in_task_order(self):
        ex = get_executor(2, backend="process")
        out = ex.run_batch(pow, [(i, 2) for i in range(10)])
        assert out == [i * i for i in range(10)]

    def test_empty_batch(self):
        assert get_executor(2, backend="process").run_batch(pow, []) == []

    def test_pool_persists_across_batches(self):
        # Instant tasks can all land on one worker, so the per-batch pid
        # *sets* may differ even with zero respawns; the persistence
        # contract is that the union never exceeds the pool size.
        ex = get_executor(2, backend="process")
        pids1 = set(ex.run_batch(_pid_slowly, [()] * 4))
        pids2 = set(ex.run_batch(_pid_slowly, [()] * 4))
        assert len(pids1 | pids2) <= ex.workers  # no respawn
        assert os.getpid() not in pids1 | pids2

    def test_close_then_reuse_restarts_lazily(self):
        ex = get_executor(2, backend="process")
        assert ex.run_batch(pow, [(2, 2)]) == [4]
        ex.close()
        assert ex._pool is None
        assert ex.run_batch(pow, [(2, 5)]) == [32]

    def test_worker_crash_raises_and_pool_recovers(self):
        # A process pool: os._exit on a thread would end this process.
        ex = get_executor(2, backend="process")
        with pytest.raises(ExecutorError, match="REPRO_WORKERS=1"):
            ex.run_batch(os._exit, [(3,)])
        assert ex._pool is None  # broken pool discarded...
        assert ex.run_batch(pow, [(2, 4)]) == [16]  # ...and restarted

    def test_nested_parallelism_degrades_to_serial(self):
        ex = get_executor(2, backend="process")
        states = ex.run_batch(probe_state, [()])
        assert states[0]["in_worker"] is True
        assert states[0]["nested_executor"] == "SerialExecutor"
        # A *thread* executor requested inside a process worker must
        # degrade too — the worker is already one lane of a fan-out.
        assert states[0]["nested_thread_executor"] == "SerialExecutor"
        # The parent itself is not a worker.
        me = probe_state()
        assert me["in_worker"] is False
        assert me["nested_executor"] == "ThreadExecutor"  # the default


# ---------------------------------------------------------------------------
# Bounded lazy restarts (the crash-streak escalation)
# ---------------------------------------------------------------------------


class TestRestartBound:
    def _crash(self, ex):
        with pytest.raises(ExecutorError, match="worker died"):
            ex.run_batch(os._exit, [(3,)])

    def test_streak_past_budget_turns_terminal(self):
        ex = ProcessExecutor(2, max_restarts=1, restart_backoff=0.0)
        try:
            self._crash(ex)  # streak 1: restart still allowed
            self._crash(ex)  # streak 2: budget spent
            # The next batch must not burn another restart: it fails
            # *before* building a pool, with the terminal diagnosis.
            with pytest.raises(ExecutorError, match="giving up"):
                ex.run_batch(pow, [(2, 2)])
            assert ex._pool is None  # never rebuilt
        finally:
            ex.reset()
            ex.close()

    def test_successful_batch_resets_the_streak(self):
        ex = ProcessExecutor(2, max_restarts=1, restart_backoff=0.0)
        try:
            self._crash(ex)
            assert ex.run_batch(pow, [(2, 3)]) == [8]  # forgives the past
            assert ex._crash_streak == 0
            self._crash(ex)  # a fresh streak gets a fresh budget
            assert ex.run_batch(pow, [(2, 4)]) == [16]
        finally:
            ex.close()

    def test_reset_rearms_a_terminal_executor(self):
        ex = ProcessExecutor(2, max_restarts=0, restart_backoff=0.0)
        try:
            self._crash(ex)
            with pytest.raises(ExecutorError, match="giving up"):
                ex.run_batch(pow, [(2, 2)])
            ex.reset()
            assert ex.run_batch(pow, [(2, 5)]) == [32]
        finally:
            ex.close()

    def test_restart_backoff_grows_exponentially(self, monkeypatch):
        waits = []
        monkeypatch.setattr(time, "sleep", waits.append)
        ex = ProcessExecutor(2, max_restarts=3, restart_backoff=0.5)
        try:
            self._crash(ex)
            self._crash(ex)
            self._crash(ex)
        finally:
            monkeypatch.undo()
            ex.reset()
            ex.close()
        # Restart k in the streak waits base * 2**(k-1); the first pool
        # build (streak 0) waits nothing.
        assert waits == [0.5, 1.0]

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ProcessExecutor(2, max_restarts=-1)


# ---------------------------------------------------------------------------
# Thread backend
# ---------------------------------------------------------------------------


class TestThreadExecutor:
    def test_selected_by_backend_and_cached(self):
        ex = get_executor(2, backend="thread")
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers == 2
        assert get_executor(2, backend="thread") is ex
        assert get_executor(3, backend="thread") is not ex
        # Different backend, same count: a distinct executor.
        assert isinstance(get_executor(2, backend="process"),
                          ProcessExecutor)

    def test_serial_backend_forces_inline(self):
        assert isinstance(get_executor(4, backend="serial"),
                          SerialExecutor)

    def test_environment_selects_thread_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        assert isinstance(get_executor(2), ThreadExecutor)

    def test_rejects_single_worker(self):
        with pytest.raises(ValueError, match=">= 2"):
            ThreadExecutor(1)

    def test_batch_results_in_task_order(self):
        ex = get_executor(2, backend="thread")
        assert ex.run_batch(pow, [(i, 2) for i in range(10)]) == [
            i * i for i in range(10)
        ]
        assert ex.run_batch(pow, []) == []

    def test_zero_copy_same_process(self):
        # The thread backend's whole point: tasks see the parent's
        # objects, no transport, no pickling.
        ex = get_executor(2, backend="thread")
        states = ex.run_batch(probe_state, [()] * 4)
        assert all(s["pid"] == os.getpid() for s in states)
        payload = {"marker": object()}
        (echoed,) = ex.run_batch(dict.get, [(payload, "marker")])
        assert echoed is payload["marker"]

    def test_close_then_reuse_restarts_lazily(self):
        ex = get_executor(2, backend="thread")
        assert ex.run_batch(pow, [(2, 2)]) == [4]
        ex.close()
        assert ex._pool is None
        assert ex.run_batch(pow, [(2, 5)]) == [32]

    def test_nested_request_inside_thread_worker_degrades(self):
        # Regression: the in-worker guard used to be a process-global
        # flag only, so a thread worker could spawn a nested pool.
        ex = get_executor(2, backend="thread")
        states = ex.run_batch(probe_state, [()] * 4)
        for state in states:
            assert state["in_worker"] is True
            assert state["nested_executor"] == "SerialExecutor"
            assert state["nested_thread_executor"] == "SerialExecutor"
        # The guard is thread-local: once the batch is done, the parent
        # thread is unaffected.
        me = probe_state()
        assert me["in_worker"] is False
        assert me["nested_thread_executor"] == "ThreadExecutor"

    def test_task_error_propagates(self):
        ex = get_executor(2, backend="thread")
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

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_handles_overlap_in_flight(self, backend):
        ex = get_executor(2, backend=backend)
        first = ex.submit_batch(pow, [(i, 2) for i in range(4)])
        second = ex.submit_batch(pow, [(i, 3) for i in range(4)])
        # Gather out of submission order: both batches complete.
        assert second.result() == [i**3 for i in range(4)]
        assert first.result() == [i**2 for i in range(4)]
        assert first.result() == [i**2 for i in range(4)]  # idempotent


# ---------------------------------------------------------------------------
# Shared-memory transport
# ---------------------------------------------------------------------------


class TestTransport:
    def test_small_blocks_pickle(self):
        mat = random_csc((8, 8), 0.2, seed=1)
        assert mat.memory_bytes() < SHM_MIN_BYTES
        handle = shm.export_csc(mat)
        assert handle[0] == "pkl"
        assert_same_csc(shm.import_csc(handle), mat)

    def test_large_blocks_use_shared_memory(self):
        mat = random_csc((400, 400), 0.1, seed=2)
        assert mat.memory_bytes() >= SHM_MIN_BYTES
        handle = shm.export_csc(mat)
        assert handle[0] == "shm"
        assert shm.export_csc(mat) is handle  # memoized per matrix
        assert_same_csc(shm.import_csc(handle), mat)

    def test_round_trip_through_a_real_worker(self):
        a = random_csc((300, 300), 0.08, seed=3)
        b = random_csc((300, 300), 0.08, seed=4)
        ex = get_executor(2, backend="process")
        (product_t, c_indptr, per_col), = ex.run_batch(
            local_multiply, [(a, b)]
        )
        from repro.spgemm.esc import spgemm_esc
        from repro.spgemm.metrics import flops_per_column

        # The row-major product and the column pointer ride the existing
        # CSC / ndarray shared-memory export.
        want = spgemm_esc(a, b)
        assert_same_csc(product_t, want.transpose())
        assert np.array_equal(c_indptr, want.indptr)
        assert np.array_equal(per_col, flops_per_column(a, b))

    def test_export_value_recurses(self):
        mat = random_csc((10, 10), 0.3, seed=5)
        packed = shm.export_value(([mat], 7, "tag"))
        out = shm.import_value(packed)
        assert_same_csc(out[0][0], mat)
        assert out[1:] == (7, "tag")

    def test_shutdown_unlinks_live_segments(self):
        mat = random_csc((400, 400), 0.1, seed=6)
        name = shm.export_csc(mat)[1]
        assert os.path.exists(f"/dev/shm/{name}")
        shutdown_executors()
        assert not os.path.exists(f"/dev/shm/{name}")
        mat.invalidate_caches()  # drop the stale export memo

    def test_batch_keeps_its_task_matrices_exported(self, monkeypatch):
        # The batch is the only owner of these matrices: their segments
        # must not be unlinked before the workers attach.
        import gc

        monkeypatch.setattr(shm, "SHM_MIN_BYTES", 0)
        handle = get_executor(2, backend="process").submit_batch(
            local_multiply,
            [
                (random_csc((60, 60), 0.1, seed=s),
                 random_csc((60, 60), 0.1, seed=s + 1))
                for s in range(4)
            ],
        )
        gc.collect()
        assert len(handle.result()) == 4

    def test_static_schedule_pool_keeps_batch_exports_alive(
        self, monkeypatch
    ):
        # Every block through shared memory on a phased static run: a
        # block only an in-flight batch refers to must stay exported
        # until the workers have attached, and nothing outlives the run.
        import gc

        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.mcl.options import MclOptions
        from repro.nets import planted_network

        def segments():
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        mat = planted_network(
            240, intra_degree=14.0, inter_degree=2.0, seed=9
        ).matrix
        opts = MclOptions(select_number=20)
        cfg = HipMCLConfig.optimized(
            nodes=16, memory_budget_bytes=64 * 1024, schedule="static"
        )
        ref = hipmcl(mat, opts, cfg, workers=1)
        monkeypatch.setattr(shm, "SHM_MIN_BYTES", 0)
        before = segments()
        run = hipmcl(mat, opts, cfg, workers=2, backend="process")
        assert np.array_equal(run.labels, ref.labels)
        assert run.elapsed_seconds == ref.elapsed_seconds
        gc.collect()
        assert segments() <= before

    def test_segment_unlinked_when_matrix_dies(self):
        mat = random_csc((400, 400), 0.1, seed=7)
        name = shm.export_csc(mat)[1]
        assert os.path.exists(f"/dev/shm/{name}")
        del mat
        assert not os.path.exists(f"/dev/shm/{name}")


def test_module_has_atexit_shutdown():
    """The pools and segments must not outlive the interpreter."""
    import atexit

    # Registration happened at import; a second registration is harmless,
    # so just assert the hook is the module's own shutdown function.
    assert executor_mod.shutdown_executors is shutdown_executors
    assert atexit  # smoke: the module imported it for registration
