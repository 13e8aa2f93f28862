"""Tests for element-wise and structural sparse operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.sparse import (
    add,
    add_self_loops,
    column_max,
    column_sum_of_squares,
    filter_threshold,
    hadamard_power,
    normalize_columns,
    random_csc,
    symmetrize_max,
)


class TestAdd:
    def test_matches_dense(self):
        a = random_csc((30, 25), 0.15, seed=1)
        b = random_csc((30, 25), 0.15, seed=2)
        assert np.allclose(add(a, b).to_dense(), a.to_dense() + b.to_dense())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(random_csc((3, 3), 0.5, 1), random_csc((4, 4), 0.5, 1))

    def test_exact_cancellation_pruned(self):
        from repro.sparse import CSCMatrix

        a = CSCMatrix.from_dense([[1.0]])
        b = CSCMatrix.from_dense([[-1.0]])
        assert add(a, b).nnz == 0


class TestHadamard:
    def test_power_matches_dense(self, square_matrix):
        out = hadamard_power(square_matrix, 2.0)
        assert np.allclose(out.to_dense(), square_matrix.to_dense() ** 2)

    def test_power_preserves_pattern(self, square_matrix):
        out = hadamard_power(square_matrix, 1.7)
        assert out.nnz == square_matrix.nnz

    def test_power_rejects_nonpositive(self, square_matrix):
        with pytest.raises(ValueError):
            hadamard_power(square_matrix, 0.0)


class TestFilterNormalize:
    def test_filter_threshold(self, square_matrix):
        out = filter_threshold(square_matrix, 0.5)
        dense = square_matrix.to_dense()
        expected = np.where(dense >= 0.5, dense, 0.0)
        assert np.allclose(out.to_dense(), expected)

    def test_normalize_columns_stochastic(self, square_matrix):
        sums = normalize_columns(square_matrix).column_sums()
        nonzero = square_matrix.column_sums() > 0
        assert np.allclose(sums[nonzero], 1.0)

    def test_normalize_keeps_empty_columns_empty(self):
        from repro.sparse import CSCMatrix

        mat = CSCMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]])
        out = normalize_columns(mat)
        assert out.column_sums()[1] == 0.0


class TestColumnStats:
    def test_column_max(self, square_matrix):
        dense = square_matrix.to_dense()
        assert np.allclose(column_max(square_matrix), dense.max(axis=0))

    def test_column_sum_of_squares(self, square_matrix):
        dense = square_matrix.to_dense()
        assert np.allclose(
            column_sum_of_squares(square_matrix), (dense**2).sum(axis=0)
        )

    def test_empty_columns_report_zero(self):
        from repro.sparse import CSCMatrix

        mat = CSCMatrix.empty((3, 4))
        assert np.all(column_max(mat) == 0)
        assert np.all(column_sum_of_squares(mat) == 0)


class TestGraphPreprocessing:
    def test_self_loops_added_with_column_max(self):
        from repro.sparse import CSCMatrix

        mat = CSCMatrix.from_dense([[0.0, 2.0], [3.0, 0.0]])
        out = add_self_loops(mat)
        dense = out.to_dense()
        assert dense[0, 0] == 3.0  # column 0 max
        assert dense[1, 1] == 2.0

    def test_self_loops_fixed_weight_replaces_diagonal(self):
        from repro.sparse import CSCMatrix

        mat = CSCMatrix.from_dense([[9.0, 1.0], [1.0, 9.0]])
        out = add_self_loops(mat, weight=1.0)
        assert np.allclose(np.diag(out.to_dense()), 1.0)

    def test_self_loops_isolated_vertex_gets_unit_loop(self):
        from repro.sparse import CSCMatrix

        mat = CSCMatrix.empty((2, 2))
        out = add_self_loops(mat)
        assert np.allclose(out.to_dense(), np.eye(2))

    def test_self_loops_need_square(self):
        with pytest.raises(ShapeError):
            add_self_loops(random_csc((3, 4), 0.5, 1))

    def test_self_loops_rejects_bad_weight(self, square_matrix):
        with pytest.raises(ValueError):
            add_self_loops(square_matrix, weight=-1.0)

    def test_symmetrize_max(self):
        mat = random_csc((25, 25), 0.15, seed=6)
        dense = mat.to_dense()
        assert np.allclose(
            symmetrize_max(mat).to_dense(), np.maximum(dense, dense.T)
        )

    def test_symmetrize_needs_square(self):
        with pytest.raises(ShapeError):
            symmetrize_max(random_csc((3, 4), 0.5, 1))


def _self_loops_by_add(mat, weight=None):
    """``add_self_loops`` as ``add(off_diag, loops)``: the lexsort it
    replaced, kept as the oracle."""
    from repro.sparse import CSCMatrix, csc_from_triples, identity_csc
    from repro.sparse import _compressed as _c

    n = mat.nrows
    if weight is not None:
        loops = identity_csc(n, weight)
    else:
        w = column_max(mat)
        w[w == 0] = 1.0
        idx = np.arange(n, dtype=np.int64)
        loops = csc_from_triples((n, n), idx, idx, w, sum_dup=False)
    cols = _c.expand_major(mat.indptr, mat.ncols)
    keep = mat.indices != cols
    off_diag = CSCMatrix(
        mat.shape, _c.compress_major(cols[keep], mat.ncols),
        mat.indices[keep], mat.data[keep], check=False,
    )
    return add(off_diag, loops)


@st.composite
def raw_square(draw):
    """A square CSC matrix as it may arrive: unsorted columns, duplicate
    coordinates, explicit zeros, negative values, an existing diagonal."""
    from repro.sparse import CSCMatrix
    from repro.sparse import _compressed as _c

    n = draw(st.integers(0, 12))
    nnz = draw(st.integers(0, 3 * n * n)) if n else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, max(n, 1), nnz)
    cols = rng.integers(0, max(n, 1), nnz)
    vals = rng.choice(
        [0.0, -0.0, 1.0, -2.5, 0.25, 3.0], nnz
    ) * rng.random(nnz).round(1)
    order = np.argsort(cols, kind="stable")  # grouped, not sorted within
    return CSCMatrix(
        (n, n), _c.compress_major(cols, n), rows[order], vals[order],
        check=False,
    )


@given(raw_square(), st.sampled_from([None, 1.0, 0.5]))
@settings(max_examples=200, deadline=None)
def test_self_loops_insert_matches_add(mat, weight):
    # The one-pass insertion gives the arrays the sorted add gave, bit for
    # bit and dtype for dtype, whatever the input's order or duplicates.
    got = add_self_loops(mat, weight)
    want = _self_loops_by_add(mat, weight)
    assert got.shape == want.shape
    for x, y in (
        (got.indptr, want.indptr), (got.indices, want.indices),
        (got.data, want.data),
    ):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
