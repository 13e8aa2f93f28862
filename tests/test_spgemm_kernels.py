"""Cross-validation of all SpGEMM kernels against scipy ground truth."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import CSCMatrix, identity_csc, random_csc
from repro.spgemm import spgemm_esc, spgemm_hash, spgemm_heap

ALL_KERNELS = [spgemm_esc, spgemm_heap, spgemm_hash]

IDS = [f.__name__ for f in ALL_KERNELS]


@pytest.fixture(params=ALL_KERNELS, ids=IDS)
def kernel(request):
    return request.param


class TestCorrectness:
    def test_matches_scipy(self, kernel, small_pair):
        a, b = small_pair
        expected = (a.to_scipy() @ b.to_scipy()).toarray()
        assert np.allclose(kernel(a, b).to_dense(), expected)

    def test_output_sorted_and_compressed(self, kernel, small_pair):
        a, b = small_pair
        c = kernel(a, b)
        assert c.has_sorted_indices()
        # No duplicate coordinates.
        assert c.sum_duplicates().nnz == c.nnz

    def test_identity_right(self, kernel, square_matrix):
        c = kernel(square_matrix, identity_csc(square_matrix.ncols))
        assert np.allclose(c.to_dense(), square_matrix.to_dense())

    def test_identity_left(self, kernel, square_matrix):
        c = kernel(identity_csc(square_matrix.nrows), square_matrix)
        assert np.allclose(c.to_dense(), square_matrix.to_dense())

    def test_empty_operands(self, kernel):
        a = CSCMatrix.empty((5, 4))
        b = CSCMatrix.empty((4, 3))
        c = kernel(a, b)
        assert c.shape == (5, 3) and c.nnz == 0

    def test_rectangular_chain(self, kernel):
        a = random_csc((7, 40), 0.3, seed=11)
        b = random_csc((40, 3), 0.3, seed=12)
        expected = a.to_dense() @ b.to_dense()
        assert np.allclose(kernel(a, b).to_dense(), expected)

    def test_shape_mismatch_rejected(self, kernel):
        with pytest.raises(ShapeError):
            kernel(random_csc((3, 4), 0.5, 1), random_csc((5, 3), 0.5, 2))

    def test_single_column_output(self, kernel):
        a = random_csc((30, 30), 0.2, seed=13)
        b = random_csc((30, 1), 0.5, seed=14)
        expected = a.to_dense() @ b.to_dense()
        assert np.allclose(kernel(a, b).to_dense(), expected)

    def test_dense_blocks(self, kernel):
        a = random_csc((12, 12), 1.0, seed=15)
        b = random_csc((12, 12), 1.0, seed=16)
        expected = a.to_dense() @ b.to_dense()
        assert np.allclose(kernel(a, b).to_dense(), expected)


class TestKernelAgreement:
    """All kernels produce the identical pattern and near-identical values."""

    def test_patterns_agree(self, small_pair):
        a, b = small_pair
        reference = spgemm_esc(a, b)
        for fn in ALL_KERNELS[1:]:
            other = fn(a, b)
            assert np.array_equal(other.indptr, reference.indptr), fn.__name__
            assert np.array_equal(other.indices, reference.indices), fn.__name__
            assert np.allclose(other.data, reference.data), fn.__name__

    def test_matrix_squaring_agreement(self, square_matrix):
        reference = spgemm_esc(square_matrix, square_matrix)
        for fn in (spgemm_heap, spgemm_hash):
            assert fn(square_matrix, square_matrix).same_pattern_and_values(
                reference, tol=1e-12
            ), fn.__name__
