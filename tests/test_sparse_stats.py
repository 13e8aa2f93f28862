"""Tests for the structural diagnostics module."""

import pytest

from repro.sparse import CSCMatrix, identity_csc, random_csc
from repro.sparse.stats import (
    ColumnProfile,
    block_imbalance,
    hypersparsity,
    squaring_profile,
)


class TestColumnProfile:
    def test_identity(self):
        p = ColumnProfile.of(identity_csc(10))
        assert p.mean == 1.0 and p.maximum == 1 and p.empty_columns == 0

    def test_empty_matrix(self):
        p = ColumnProfile.of(CSCMatrix.empty((5, 8)))
        assert p.empty_columns == 8 and p.maximum == 0

    def test_zero_columns(self):
        p = ColumnProfile.of(CSCMatrix.empty((5, 0)))
        assert p.n_columns == 0

    def test_percentiles_ordered(self):
        mat = random_csc((100, 100), 0.1, seed=3)
        p = ColumnProfile.of(mat)
        assert p.median <= p.p95 <= p.maximum
        assert p.mean == pytest.approx(mat.nnz / 100)


class TestSquaringProfile:
    def test_matches_flops(self, square_matrix):
        from repro.spgemm import flops

        prof = squaring_profile(square_matrix)
        assert prof["flops"] == flops(square_matrix, square_matrix)

    def test_empty(self):
        prof = squaring_profile(CSCMatrix.empty((4, 4)))
        assert prof["flops"] == 0.0

    def test_square_required(self):
        with pytest.raises(ValueError):
            squaring_profile(random_csc((3, 4), 0.5, 1))

    def test_skew_detected(self):
        # R-MAT's hubs concentrate squaring flops in few columns, far
        # beyond a uniform random matrix of the same density.
        from repro.nets import rmat_network

        rmat = rmat_network(8, edge_factor=8, seed=3).matrix
        uniform = random_csc((256, 256), rmat.nnz / 256**2, seed=9)
        assert (
            squaring_profile(rmat)["flops_top1pct"]
            > 2 * squaring_profile(uniform)["flops_top1pct"]
        )


class TestHypersparsity:
    def test_regime_flip_with_processes(self):
        mat = random_csc((1000, 1000), 0.002, seed=5)  # ~2 nnz/column
        small = hypersparsity(mat, 4)
        large = hypersparsity(mat, 4096)
        assert small["fill_ratio"] > large["fill_ratio"]
        assert large["dcsc_recommended"] == 1.0

    def test_validation(self):
        mat = identity_csc(4)
        with pytest.raises(ValueError):
            hypersparsity(mat, 12)
        with pytest.raises(ValueError):
            hypersparsity(mat, 0)


class TestBlockImbalance:
    def test_uniform_near_one(self):
        mat = random_csc((400, 400), 0.05, seed=7)
        assert 1.0 <= block_imbalance(mat, 16) < 1.6

    def test_skewed_is_larger(self):
        from repro.nets import rmat_network

        rmat = rmat_network(9, edge_factor=8, seed=3)
        uniform = random_csc(
            (512, 512), rmat.matrix.nnz / 512**2, seed=9
        )
        assert block_imbalance(rmat.matrix, 64) > block_imbalance(
            uniform, 64
        )

    def test_empty_is_one(self):
        assert block_imbalance(CSCMatrix.empty((8, 8)), 4) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            block_imbalance(identity_csc(4), 5)
