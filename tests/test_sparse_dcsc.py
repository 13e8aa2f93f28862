"""Unit tests for the doubly compressed (hypersparse) format."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.sparse import CSCMatrix, DCSCMatrix, random_csc

from helpers import assert_matrix_equals_dense


class TestRoundTrip:
    def test_dense_roundtrip(self):
        mat = random_csc((40, 60), 0.05, seed=7)
        d = DCSCMatrix.from_csc(mat)
        assert_matrix_equals_dense(d, mat.to_dense())

    def test_empty_matrix(self):
        d = DCSCMatrix.from_csc(CSCMatrix.empty((5, 9)))
        assert d.nnz == 0 and d.nzc == 0
        assert d.to_dense().shape == (5, 9)

    def test_to_csc_shares_nnz_arrays(self):
        # The §III-B observation: decompression touches only pointers.
        mat = random_csc((30, 30), 0.1, seed=3)
        d = DCSCMatrix.from_csc(mat)
        back = d.to_csc()
        assert back.indices is d.ir
        assert back.data is d.num

    def test_nzc_counts_nonempty_columns(self):
        mat = random_csc((50, 80), 0.02, seed=5)
        d = DCSCMatrix.from_csc(mat)
        assert d.nzc == int((mat.column_lengths() > 0).sum())


class TestHypersparsity:
    def test_memory_savings_on_hypersparse(self):
        # One nonzero in a million-column matrix: DCSC must not pay O(ncols).
        mat = CSCMatrix(
            (10, 1_000_000),
            np.concatenate(([0], np.ones(1_000_000, dtype=np.int64))),
            [3],
            [1.0],
            check=False,
        )
        d = DCSCMatrix.from_csc(mat)
        assert d.memory_bytes() < 200
        assert mat.memory_bytes() > 1_000_000

    def test_validation_rejects_empty_listed_column(self):
        with pytest.raises(FormatError):
            DCSCMatrix((3, 4), jc=[1, 2], cp=[0, 0, 1], ir=[0], num=[1.0])

    def test_validation_rejects_unsorted_jc(self):
        with pytest.raises(FormatError):
            DCSCMatrix((3, 4), jc=[2, 1], cp=[0, 1, 2], ir=[0, 1], num=[1.0, 2.0])

    def test_validation_rejects_jc_out_of_range(self):
        with pytest.raises(FormatError):
            DCSCMatrix((3, 4), jc=[4], cp=[0, 1], ir=[0], num=[1.0])

    def test_validation_rejects_bad_cp_tail(self):
        with pytest.raises(FormatError):
            DCSCMatrix((3, 4), jc=[0], cp=[0, 2], ir=[0], num=[1.0])
