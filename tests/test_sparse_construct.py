"""Tests for sparse constructors (triples, identity, random, blocks)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import (
    block_of_csc,
    csc_from_triples,
    hstack_csc,
    identity_csc,
    random_csc,
)

from repro.sparse import _compressed as _c

from helpers import assert_matrix_equals_dense


@pytest.mark.parametrize("major, n_major", [
    ([0, 0, 2, 5, 5, 5], 7),  # sorted, empty slices at both ends
    ([5, 0, 2, 5, 0, 5], 7),  # unsorted: the same counts
    ([], 4),  # no entries
    ([], 0),  # no major slices
])
def test_compress_major_counts_like_add_at(major, n_major):
    major = np.asarray(major, dtype=np.int64)
    want = np.zeros(n_major + 1, dtype=np.int64)
    np.add.at(want, major + 1, 1)
    np.cumsum(want, out=want)
    got = _c.compress_major(major, n_major)
    assert got.dtype == np.int64 and np.array_equal(got, want)


class TestFromTriples:
    def test_basic(self):
        mat = csc_from_triples((3, 3), [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        assert np.allclose(mat.to_dense(), np.diag([1.0, 2.0, 3.0]))

    def test_duplicates_summed(self):
        mat = csc_from_triples((2, 2), [0, 0, 1], [1, 1, 0], [1.0, 2.0, 4.0])
        dense = mat.to_dense()
        assert dense[0, 1] == 3.0 and dense[1, 0] == 4.0

    def test_duplicates_kept_when_disabled(self):
        mat = csc_from_triples(
            (2, 2), [0, 0], [1, 1], [1.0, 2.0], sum_dup=False
        )
        assert mat.nnz == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            csc_from_triples((2, 2), [2], [0], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            csc_from_triples((2, 2), [0, 1], [0], [1.0])


class TestIdentity:
    def test_identity(self):
        assert np.allclose(identity_csc(4).to_dense(), np.eye(4))

    def test_scaled_identity(self):
        assert np.allclose(identity_csc(3, 2.5).to_dense(), 2.5 * np.eye(3))


class TestRandom:
    def test_density_close(self):
        mat = random_csc((200, 200), 0.1, seed=1)
        assert 0.06 <= mat.nnz / 200**2 <= 0.12

    def test_values_positive_uniform(self):
        mat = random_csc((50, 50), 0.2, seed=2)
        assert mat.data.min() > 0 and mat.data.max() <= 1.0

    def test_ones_variant(self):
        mat = random_csc((30, 30), 0.2, seed=3, values="ones")
        assert np.all(mat.data == 1.0)

    def test_lognormal_variant(self):
        mat = random_csc((30, 30), 0.2, seed=4, values="lognormal")
        assert mat.data.min() > 0

    def test_bad_values_kind(self):
        with pytest.raises(ValueError):
            random_csc((5, 5), 0.2, values="cauchy")

    def test_bad_density(self):
        with pytest.raises(ValueError):
            random_csc((5, 5), 1.5)

    def test_deterministic_in_seed(self):
        a = random_csc((40, 40), 0.1, seed=99)
        b = random_csc((40, 40), 0.1, seed=99)
        assert a.same_pattern_and_values(b)

    def test_full_density(self):
        mat = random_csc((10, 10), 1.0, seed=5)
        assert mat.nnz == 100


class TestBlocks:
    def test_hstack_roundtrip(self, square_matrix):
        parts = [
            square_matrix.column_slab(0, 30),
            square_matrix.column_slab(30, 55),
            square_matrix.column_slab(55, 80),
        ]
        assert_matrix_equals_dense(
            hstack_csc(parts), square_matrix.to_dense()
        )

    def test_hstack_row_mismatch(self):
        with pytest.raises(ShapeError):
            hstack_csc([random_csc((3, 2), 0.5, 1), random_csc((4, 2), 0.5, 1)])

    def test_hstack_empty_list(self):
        with pytest.raises(ValueError):
            hstack_csc([])

    def test_block_extraction(self, square_matrix):
        dense = square_matrix.to_dense()
        blk = block_of_csc(square_matrix, 20, 50, 10, 60)
        assert_matrix_equals_dense(blk, dense[20:50, 10:60])

    def test_block_full_matrix(self, square_matrix):
        blk = block_of_csc(square_matrix, 0, 80, 0, 80)
        assert blk.same_pattern_and_values(square_matrix.sorted())
