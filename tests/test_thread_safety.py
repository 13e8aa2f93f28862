"""Thread-safety audit of the identity-keyed caches.

The executor's thread pool hits the matrix-instance memo caches
(per-column flops, phase slabs) from many pool threads at once.  These tests hammer each cache from a real thread pool
and pin the single-flight contract: a build never runs twice for a live
key, concurrent callers all observe the one published value, and no
caller sequenced after ``invalidate_caches()`` can observe a
pre-invalidation value.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.parallel import ThreadExecutor, shutdown_executors
from repro.perf.arena import Arena, global_arena
from repro.perf.cache import memo
from repro.sparse import random_csc
from repro.spgemm.esc import spgemm_esc

from helpers import assert_same_csc

HAMMER_THREADS = 8
HAMMER_ROUNDS = 40


@pytest.fixture(scope="module")
def mat():
    return random_csc((300, 300), 0.05, seed=21)


class TestMemoSingleFlight:
    def test_concurrent_callers_share_one_build(self, mat):
        builds = []
        gate = threading.Barrier(HAMMER_THREADS)

        def build():
            builds.append(threading.get_ident())
            time.sleep(0.02)  # widen the race window
            return object()

        def call():
            gate.wait()
            return memo(mat, "audit_single_flight", build)

        with ThreadPoolExecutor(HAMMER_THREADS) as pool:
            results = list(pool.map(lambda _: call(),
                                    range(HAMMER_THREADS)))
        assert len(builds) == 1
        assert all(r is results[0] for r in results)

    def test_failed_build_releases_the_flight(self, mat):
        attempts = []

        def failing():
            attempts.append(None)
            raise RuntimeError("flaky build")

        with pytest.raises(RuntimeError):
            memo(mat, "audit_retry", failing)
        # The flight is gone: the next caller retries and can succeed.
        value = memo(mat, "audit_retry", lambda: "recovered")
        assert value == "recovered"
        assert len(attempts) == 1

    def test_waiters_survive_builder_failure(self, mat):
        gate = threading.Barrier(HAMMER_THREADS)
        calls = []

        def build():
            calls.append(None)
            if len(calls) == 1:
                time.sleep(0.01)
                raise RuntimeError("first build dies")
            return "second build wins"

        def call():
            gate.wait()
            try:
                return memo(mat, "audit_waiter_retry", build)
            except RuntimeError:
                return None

        with ThreadPoolExecutor(HAMMER_THREADS) as pool:
            results = list(pool.map(lambda _: call(),
                                    range(HAMMER_THREADS)))
        survivors = [r for r in results if r is not None]
        assert survivors and all(r == "second build wins"
                                 for r in survivors)

    def test_no_stale_value_after_invalidate(self, mat):
        # Sequential contract first: a memo call sequenced after the
        # invalidation must re-build, never return the old value.
        first = memo(mat, "audit_fresh", lambda: "v1")
        assert first == "v1"
        mat.invalidate_caches()
        assert memo(mat, "audit_fresh", lambda: "v2") == "v2"

    def test_hammered_invalidate_never_resurrects(self, mat):
        # Readers hammer the cache while the writer bumps a generation
        # and invalidates after every bump.  Builds that started before
        # an invalidation publish into the swapped-out store, so a memo
        # call sequenced after the *last* invalidation must observe the
        # final generation — any earlier value would be a resurrected
        # pre-invalidation entry.
        generation = [0]
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    got = memo(
                        mat, "audit_generation", lambda: generation[0]
                    )
                    assert 0 <= got < HAMMER_ROUNDS
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=reader)
                   for _ in range(HAMMER_THREADS - 2)]
        for t in threads:
            t.start()
        for g in range(1, HAMMER_ROUNDS):
            generation[0] = g
            mat.invalidate_caches()
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        final = memo(mat, "audit_generation", lambda: generation[0])
        assert final == HAMMER_ROUNDS - 1


class TestDerivedQuantityCaches:
    def test_column_lengths_hammered(self, mat):
        expected = mat.column_lengths().copy()

        def call():
            return mat.column_lengths()

        with ThreadPoolExecutor(HAMMER_THREADS) as pool:
            for got in pool.map(lambda _: call(), range(HAMMER_ROUNDS)):
                assert np.array_equal(got, expected)

    def test_slab_memo_hammered(self, mat):
        # The engine's phase-slab cache: same (lo, hi) key from every
        # thread must yield the identical object, built once.
        builds = []

        def build():
            builds.append(None)
            return mat.column_slab(10, 60)

        def call():
            return memo(mat, ("slab", 10, 60), build)

        with ThreadPoolExecutor(HAMMER_THREADS) as pool:
            results = list(pool.map(lambda _: call(),
                                    range(HAMMER_ROUNDS)))
        assert len(builds) == 1
        assert all(r is results[0] for r in results)


class TestThreadLocalArena:
    def test_each_thread_gets_its_own(self):
        arenas = {}

        def grab(i):
            arenas[i] = global_arena()
            assert global_arena() is arenas[i]  # stable within a thread

        threads = [threading.Thread(target=grab, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        arenas["main"] = global_arena()
        objs = list(arenas.values())
        assert len({id(a) for a in objs}) == len(objs)
        assert all(isinstance(a, Arena) for a in objs)

    def test_hammered_kernels_stay_bit_identical(self, mat):
        # The real hazard a shared arena would cause: concurrent hash
        # kernels scribbling on each other's scratch.  Run the same
        # multiply from every pool thread and demand exact agreement.
        other = random_csc((300, 300), 0.05, seed=22)
        ref_product, ref_indptr, ref_flops = spgemm_esc(
            mat, other, transposed=True
        )
        ex = ThreadExecutor(4)
        try:
            outs = ex.run_batch(
                spgemm_esc, [(mat, other, True)] * HAMMER_ROUNDS
            )
        finally:
            ex.close()
        for product, indptr, flops in outs:
            assert_same_csc(product, ref_product)
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(flops, ref_flops)


@pytest.fixture(scope="module", autouse=True)
def _teardown():
    yield
    shutdown_executors()
