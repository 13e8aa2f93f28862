"""Thread-safety audit of the kernels and the matrix caches.

The executor's thread pool runs block columns on many threads at once,
and they share operand blocks.  A block's lazy caches (``column_lengths``,
``min_value``) derive from read-only arrays, so a race to fill one only
repeats work; these tests hammer them and the local multiply from a real
thread pool and demand the serial answer.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.parallel import ThreadExecutor, shutdown_executors
from repro.sparse import random_csc
from repro.spgemm.esc import spgemm_esc

from helpers import assert_same_csc

HAMMER_THREADS = 8
HAMMER_ROUNDS = 40


@pytest.fixture(scope="module")
def mat():
    return random_csc((300, 300), 0.05, seed=21)


class TestDerivedQuantityCaches:
    def test_column_lengths_hammered(self, mat):
        expected = mat.column_lengths().copy()

        def call():
            return mat.column_lengths()

        with ThreadPoolExecutor(HAMMER_THREADS) as pool:
            for got in pool.map(lambda _: call(), range(HAMMER_ROUNDS)):
                assert np.array_equal(got, expected)


class TestConcurrentKernels:
    def test_hammered_kernels_stay_bit_identical(self, mat):
        # Concurrent kernels must not share scratch state: run the same
        # multiply from every pool thread and demand exact agreement.
        other = random_csc((300, 300), 0.05, seed=22)
        ref_product, ref_flops = spgemm_esc(mat, other, kernel_order=True)
        ex = ThreadExecutor(4)
        try:
            outs = ex.run_batch(
                spgemm_esc, [(mat, other, True)] * HAMMER_ROUNDS
            )
        finally:
            ex.close()
        for product, flops in outs:
            assert_same_csc(product, ref_product)
            assert np.array_equal(flops, ref_flops)


@pytest.fixture(scope="module", autouse=True)
def _teardown():
    yield
    shutdown_executors()
