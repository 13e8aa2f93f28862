"""A ``CSCMatrix``'s lazy caches and the read-only arrays they rest on."""

import numpy as np
import pytest

from repro.sparse import CSCMatrix, random_csc


# ---------------------------------------------------------------------------
# Instance caches on CSCMatrix
# ---------------------------------------------------------------------------


def test_column_lengths_cached_and_read_only():
    mat = random_csc((40, 30), 0.1, seed=1)
    lens = mat.column_lengths()
    assert lens is mat.column_lengths()  # same object: cached
    assert not lens.flags.writeable
    with pytest.raises(ValueError):
        lens[0] = 99
    assert np.array_equal(lens, np.diff(mat.indptr))


def test_min_value_cached_and_total():
    mat = random_csc((40, 30), 0.1, seed=1)
    assert mat.min_value() == mat.data.min() > 0
    data = mat.data.copy()
    data[0] = -3.0  # an altered matrix is a new one: its own cache
    altered = CSCMatrix(mat.shape, mat.indptr, mat.indices, data, check=False)
    assert mat.min_value() > 0
    assert altered.min_value() == -3.0
    assert CSCMatrix.empty((3, 4)).min_value() == np.inf
    with_nan = CSCMatrix((1, 2), [0, 1, 2], [0, 0], [np.nan, 1.0])
    assert np.isnan(with_nan.min_value())
    assert np.signbit(CSCMatrix((1, 1), [0, 1], [0], [-0.0]).min_value())


def test_arrays_are_read_only():
    import scipy.sparse as sp

    from repro.spgemm.esc import spgemm_esc

    mat = random_csc((30, 24), 0.15, seed=11)
    built = {
        "constructor": CSCMatrix(
            mat.shape, mat.indptr.copy(), mat.indices.copy(),
            mat.data.copy(),
        ),
        "from_dense": CSCMatrix.from_dense(mat.to_dense()),
        "from_scipy": CSCMatrix.from_scipy(mat.to_scipy()),
        "copy": mat.copy(),
        "spgemm_esc": spgemm_esc(mat.transpose(), mat),
    }
    for how, out in built.items():
        assert out.nnz, how
        for name in ("indptr", "indices", "data"):
            array = getattr(out, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


def test_from_scipy_leaves_its_source_writable():
    src = random_csc((20, 20), 0.2, seed=4).to_scipy()
    mat = CSCMatrix.from_scipy(src)
    src.data[0] = 7.0  # a kept source array would now be read-only
    assert mat.data[0] != 7.0


class TestMutationPathsInvalidateCaches:
    """A matrix's arrays are read-only, so the only way to change what a
    ``CSCMatrix`` holds is to derive a new one: every deriving method must
    return an instance whose lazy caches start empty.
    """

    @pytest.mark.parametrize(
        "derive",
        [
            lambda m: m.copy(),
            lambda m: m.sorted(),
            lambda m: m.sum_duplicates(),
            lambda m: m.pruned_zeros(),
            lambda m: m.transpose(),
            lambda m: m.column_slab(0, m.ncols // 2),
            lambda m: m.scale_columns(np.ones(m.ncols)),
        ],
        ids=["copy", "sorted", "sum_duplicates", "pruned_zeros",
             "transpose", "column_slab", "scale_columns"],
    )
    def test_deriving_methods_start_with_empty_caches(self, derive):
        mat = random_csc((30, 24), 0.15, seed=10)
        mat.column_lengths()
        mat.min_value()
        out = derive(mat)
        assert out._lens is None and out._min is None
        assert np.array_equal(out.column_lengths(), np.diff(out.indptr))
