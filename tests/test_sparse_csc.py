"""Unit tests for CSCMatrix."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.sparse import CSCMatrix, random_csc

from helpers import assert_matrix_equals_dense


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 3.0]])
        mat = CSCMatrix.from_dense(dense)
        assert mat.shape == (2, 3)
        assert mat.nnz == 3
        assert_matrix_equals_dense(mat, dense)

    def test_empty(self):
        mat = CSCMatrix.empty((4, 5))
        assert mat.nnz == 0
        assert mat.to_dense().shape == (4, 5)

    def test_zero_dimension(self):
        mat = CSCMatrix.empty((0, 0))
        assert mat.nnz == 0

    def test_negative_shape_rejected(self):
        with pytest.raises(ShapeError):
            CSCMatrix.empty((-1, 3))

    def test_from_scipy(self):
        import scipy.sparse as sp

        s = sp.random(30, 20, density=0.2, random_state=7, format="csc")
        mat = CSCMatrix.from_scipy(s)
        assert_matrix_equals_dense(mat, s.toarray())

    def test_validation_bad_indptr_length(self):
        with pytest.raises(FormatError):
            CSCMatrix((2, 2), [0, 1], [0], [1.0])

    def test_validation_decreasing_indptr(self):
        with pytest.raises(FormatError):
            CSCMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_validation_out_of_range_row(self):
        with pytest.raises(FormatError):
            CSCMatrix((2, 2), [0, 1, 2], [0, 5], [1.0, 2.0])

    def test_check_false_skips_validation(self):
        # Invalid arrays accepted when check=False — caller's contract.
        CSCMatrix((2, 2), [0, 1], [0], [1.0], check=False)


class TestAccessors:
    def test_column_view(self, square_matrix):
        dense = square_matrix.to_dense()
        rows, vals = square_matrix.column(3)
        col = np.zeros(square_matrix.nrows)
        col[rows] = vals
        assert np.allclose(col, dense[:, 3])

    def test_column_out_of_range(self, square_matrix):
        with pytest.raises(IndexError):
            square_matrix.column(square_matrix.ncols)

    def test_column_lengths_sum_to_nnz(self, square_matrix):
        assert square_matrix.column_lengths().sum() == square_matrix.nnz

    def test_column_slab(self, square_matrix):
        dense = square_matrix.to_dense()
        slab = square_matrix.column_slab(10, 30)
        assert_matrix_equals_dense(slab, dense[:, 10:30])

    def test_column_slab_empty_range(self, square_matrix):
        slab = square_matrix.column_slab(5, 5)
        assert slab.ncols == 0 and slab.nnz == 0

    def test_column_slab_bad_range(self, square_matrix):
        with pytest.raises(IndexError):
            square_matrix.column_slab(30, 10)

    def test_memory_bytes_counts_arrays(self, square_matrix):
        # The arrays as HipMCL holds them: 8-byte indices and values.
        expected = (
            square_matrix.indptr.astype(np.int64).nbytes
            + square_matrix.indices.astype(np.int64).nbytes
            + square_matrix.data.nbytes
        )
        assert square_matrix.memory_bytes() == expected


class TestCanonicalization:
    def test_sum_duplicates(self):
        mat = CSCMatrix((3, 2), [0, 3, 4], [0, 0, 2, 1], [1.0, 2.0, 3.0, 4.0])
        out = mat.sum_duplicates()
        expected = np.array([[3.0, 0.0], [0.0, 4.0], [3.0, 0.0]])
        assert out.nnz == 3
        assert_matrix_equals_dense(out, expected)

    def test_sorted(self):
        mat = CSCMatrix((3, 1), [0, 3], [2, 0, 1], [3.0, 1.0, 2.0])
        assert not mat.has_sorted_indices()
        out = mat.sorted()
        assert out.has_sorted_indices()
        assert np.array_equal(out.indices, [0, 1, 2])
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_pruned_zeros(self):
        mat = CSCMatrix((2, 2), [0, 2, 3], [0, 1, 0], [0.0, 5.0, 0.0])
        out = mat.pruned_zeros()
        assert out.nnz == 1
        assert out.to_dense()[1, 0] == 5.0

    def test_has_sorted_indices_cross_column_drop_ok(self):
        # Row index may drop across a column boundary and remain sorted.
        mat = CSCMatrix((5, 2), [0, 2, 4], [3, 4, 0, 1], np.ones(4))
        assert mat.has_sorted_indices()


class TestNumericHelpers:
    def test_column_sums(self, square_matrix):
        assert np.allclose(
            square_matrix.column_sums(), square_matrix.to_dense().sum(axis=0)
        )

    def test_scale_columns(self, square_matrix):
        f = np.linspace(0.5, 2.0, square_matrix.ncols)
        out = square_matrix.scale_columns(f)
        assert np.allclose(out.to_dense(), square_matrix.to_dense() * f)

    def test_scale_columns_shape_mismatch(self, square_matrix):
        with pytest.raises(ShapeError):
            square_matrix.scale_columns(np.ones(3))

    def test_transpose(self, square_matrix):
        assert np.allclose(
            square_matrix.transpose().to_dense(), square_matrix.to_dense().T
        )

    def test_transpose_is_sorted(self, square_matrix):
        assert square_matrix.transpose().has_sorted_indices()


class TestComparison:
    def test_same_pattern_and_values_exact(self, square_matrix):
        assert square_matrix.same_pattern_and_values(square_matrix.copy())

    def test_same_pattern_tolerates_rounding(self, square_matrix):
        other = CSCMatrix(
            square_matrix.shape,
            square_matrix.indptr.copy(),
            square_matrix.indices.copy(),
            square_matrix.data * (1 + 1e-14),
            check=False,
        )
        assert square_matrix.same_pattern_and_values(other, tol=1e-12)
        assert not square_matrix.same_pattern_and_values(other, tol=0.0)

    def test_different_shape_not_equal(self, square_matrix):
        assert not square_matrix.same_pattern_and_values(
            random_csc((10, 10), 0.5, seed=1)
        )

    def test_repr_mentions_shape_and_nnz(self, square_matrix):
        text = repr(square_matrix)
        assert str(square_matrix.nnz) in text
        assert "80" in text
