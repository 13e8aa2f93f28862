"""Property-based tests: every SpGEMM kernel equals the dense product."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSCMatrix, csc_from_triples
from repro.spgemm import (
    flops,
    spgemm_esc,
    spgemm_hash,
    spgemm_heap,
    symbolic_nnz,
)

from helpers import symbolic_counts_numpy


@st.composite
def multiplication_instances(draw):
    m = draw(st.integers(1, 14))
    k = draw(st.integers(1, 14))
    n = draw(st.integers(1, 14))

    def mat(nrows, ncols):
        nnz = draw(st.integers(0, nrows * ncols))
        rows = draw(
            st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
        )
        cols = draw(
            st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
        )
        vals = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=nnz, max_size=nnz,
            )
        )
        return csc_from_triples((nrows, ncols), rows, cols, vals)

    return mat(m, k), mat(k, n)


KERNELS = [spgemm_esc, spgemm_heap, spgemm_hash]


@given(multiplication_instances())
@settings(max_examples=50, deadline=None)
def test_all_kernels_match_dense(instance):
    a, b = instance
    expected = a.to_dense() @ b.to_dense()
    for fn in KERNELS:
        got = fn(a, b).to_dense()
        assert np.allclose(got, expected, atol=1e-9), fn.__name__


@given(multiplication_instances())
@settings(max_examples=50, deadline=None)
def test_symbolic_counts_product_pattern(instance):
    a, b = instance
    # Pattern of the dense product (positive values cannot cancel).
    pattern_nnz = int(
        (((a.to_dense() != 0) @ (b.to_dense() != 0)) != 0).sum()
    )
    assert symbolic_nnz(a, b) == pattern_nnz


@given(multiplication_instances())
@settings(max_examples=50, deadline=None)
def test_flops_bounds_output(instance):
    a, b = instance
    f = flops(a, b)
    c_nnz = symbolic_nnz(a, b)
    assert c_nnz <= f  # each output entry needs at least one flop
    assert f <= a.nnz * b.nnz + 1


@given(multiplication_instances())
@settings(max_examples=30, deadline=None)
def test_kernels_agree_on_pattern_exactly(instance):
    a, b = instance
    ref = spgemm_esc(a, b)
    for fn in (spgemm_heap, spgemm_hash):
        other = fn(a, b)
        assert np.array_equal(other.indptr, ref.indptr), fn.__name__
        assert np.array_equal(other.indices, ref.indices), fn.__name__


@st.composite
def structural_instances(draw):
    """Rectangular A (m×k), B (k×n) built slot by slot: any dimension may
    be 0, rows and columns may be empty, and the stored values include
    explicit zeros and ±1 pairs that cancel exactly."""
    m, k, n = (draw(st.integers(0, 9)) for _ in range(3))

    def mat(nrows, ncols):
        cols = [
            sorted(draw(st.sets(st.integers(0, nrows - 1)))) if nrows else []
            for _ in range(ncols)
        ]
        indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
        indices = np.array([r for c in cols for r in c], dtype=np.int64)
        data = np.array(
            draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.5]),
                          min_size=len(indices), max_size=len(indices))),
            dtype=np.float64,
        )
        return CSCMatrix((nrows, ncols), indptr, indices, data)

    return mat(m, k), mat(k, n)


def _ones(mat):
    return sp.csc_matrix(
        (np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape
    )


@given(structural_instances())
@settings(max_examples=120, deadline=None)
def test_symbolic_matches_independent_oracles(instance):
    """Differential: SciPy on the 0/1 patterns, the numeric ESC kernel's
    own column lengths and a NumPy expansion — structure counts, values
    (stored zeros, ±1 pairs that cancel) do not."""
    a, b = instance
    scipy_counts = (_ones(a) @ _ones(b)).getnnz(axis=0)
    assert np.array_equal(spgemm_esc(a, b).column_lengths(), scipy_counts)
    assert np.array_equal(symbolic_counts_numpy(a, b), scipy_counts)
    assert symbolic_nnz(a, b) == int(scipy_counts.sum())
