"""Property-based tests for the sparse formats (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    CSCMatrix,
    DCSCMatrix,
    add,
    csc_from_triples,
    normalize_columns,
    symmetrize_max,
)


@st.composite
def sparse_matrices(draw, max_dim=24, square=False):
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, nrows * ncols))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(
                min_value=0.001, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return csc_from_triples((nrows, ncols), rows, cols, vals)


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_dcsc_roundtrip_preserves_content(mat):
    d = DCSCMatrix.from_csc(mat)
    assert np.allclose(d.to_csc().to_dense(), mat.to_dense())
    assert d.nnz == mat.nnz


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_transpose_involution(mat):
    assert mat.transpose().transpose().same_pattern_and_values(mat.sorted())


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_canonicalization_idempotent(mat):
    once = mat.sum_duplicates().pruned_zeros().sorted()
    twice = once.sum_duplicates().pruned_zeros().sorted()
    assert once.same_pattern_and_values(twice)


@given(sparse_matrices(), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_column_slab_consistent(mat, seed):
    rng = np.random.default_rng(seed)
    lo = int(rng.integers(0, mat.ncols + 1))
    hi = int(rng.integers(lo, mat.ncols + 1))
    slab = mat.column_slab(lo, hi)
    assert np.allclose(slab.to_dense(), mat.to_dense()[:, lo:hi])


@given(sparse_matrices(max_dim=14))
@settings(max_examples=40, deadline=None)
def test_add_commutes(mat):
    other = CSCMatrix.from_dense(mat.to_dense().T.copy()) if (
        mat.nrows == mat.ncols
    ) else mat
    ab = add(mat, other)
    ba = add(other, mat)
    assert np.allclose(ab.to_dense(), ba.to_dense())


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_normalize_columns_stochastic_or_empty(mat):
    sums = normalize_columns(mat).column_sums()
    original = mat.column_sums()
    for s, orig in zip(sums, original):
        if orig > 0:
            assert abs(s - 1.0) < 1e-9
        else:
            assert s == 0.0


@given(sparse_matrices(square=True))
@settings(max_examples=40, deadline=None)
def test_symmetrize_max_is_symmetric_and_dominating(mat):
    out = symmetrize_max(mat).to_dense()
    assert np.allclose(out, out.T)
    assert np.all(out >= mat.to_dense() - 1e-12)
