"""Tests: the §II distributed top-k protocol equals the centralized prune."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.mcl import MclOptions
from repro.mcl.distributed_prune import (
    distributed_prune_block_column,
    distributed_topk_threshold,
    filter_block_by_threshold,
    local_topk_candidates,
)
from repro.mcl.prune import prune_columns
from repro.mpi import ProcessGrid
from repro.sparse import CSCMatrix, block_of_csc, random_csc


def split_rows(mat, q):
    grid = ProcessGrid(q)
    return [
        block_of_csc(mat, *grid.block_bounds(mat.nrows, i), 0, mat.ncols)
        for i in range(q)
    ]


class TestLocalCandidates:
    def test_candidates_are_column_top_k(self):
        mat = random_csc((40, 12), 0.4, seed=3)
        cols, vals = local_topk_candidates(mat, 3)
        dense = mat.to_dense()
        for j in range(12):
            expected = np.sort(dense[:, j][dense[:, j] > 0])[::-1][:3]
            got = np.sort(vals[cols == j])[::-1]
            assert np.allclose(got, expected)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            local_topk_candidates(CSCMatrix.empty((2, 2)), 0)

    def test_empty_block(self):
        cols, vals = local_topk_candidates(CSCMatrix.empty((4, 4)), 5)
        assert len(cols) == 0 and len(vals) == 0


class TestThreshold:
    def test_threshold_is_global_kth(self):
        mat = random_csc((60, 10), 0.5, seed=5)
        blocks = split_rows(mat, 3)
        th = distributed_topk_threshold(blocks, 4)
        dense = mat.to_dense()
        for j in range(10):
            col = np.sort(dense[:, j][dense[:, j] > 0])[::-1]
            if len(col) >= 4:
                assert th[j] == pytest.approx(col[3])
            else:
                assert th[j] == -np.inf

    def test_empty_blocks_give_minus_inf(self):
        blocks = [CSCMatrix.empty((5, 3)) for _ in range(2)]
        th = distributed_topk_threshold(blocks, 2)
        assert np.all(np.isneginf(th))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            distributed_topk_threshold(
                [CSCMatrix.empty((5, 3)), CSCMatrix.empty((5, 4))], 2
            )

    def test_no_blocks(self):
        with pytest.raises(ValueError):
            distributed_topk_threshold([], 2)


class TestEquivalenceWithCentralizedPrune:
    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_prune_columns(self, q, k):
        mat = random_csc((64, 20), 0.3, seed=q * 10 + k)
        options = MclOptions(prune_threshold=0.2, select_number=k)
        central, _ = prune_columns(mat, options)
        blocks = split_rows(mat, q)
        pruned_blocks = distributed_prune_block_column(blocks, options)
        # Reassemble.
        grid = ProcessGrid(q)
        parts_rows, parts_cols, parts_vals = [], [], []
        from repro.sparse import csc_from_triples
        from repro.sparse import _compressed as _c

        for i, blk in enumerate(pruned_blocks):
            r_lo, _ = grid.block_bounds(64, i)
            parts_rows.append(blk.indices + r_lo)
            parts_cols.append(_c.expand_major(blk.indptr, blk.ncols))
            parts_vals.append(blk.data)
        merged = csc_from_triples(
            (64, 20),
            np.concatenate(parts_rows),
            np.concatenate(parts_cols),
            np.concatenate(parts_vals),
        )
        assert merged.same_pattern_and_values(central, tol=0)

    def test_cutoff_only_mode(self):
        mat = random_csc((30, 8), 0.4, seed=77)
        options = MclOptions(prune_threshold=0.5, select_number=0)
        central, _ = prune_columns(mat, options)
        blocks = split_rows(mat, 2)
        pruned = distributed_prune_block_column(blocks, options)
        total = sum(b.nnz for b in pruned)
        assert total == central.nnz


class TestFilterByThreshold:
    def test_threshold_and_cutoff_interact(self):
        mat = CSCMatrix.from_dense([[0.9], [0.5], [0.1]])
        out = filter_block_by_threshold(
            mat, np.array([0.5]), cutoff=0.2, k=2
        )
        dense = out.to_dense().ravel()
        assert dense[0] == 0.9 and dense[1] == 0.5 and dense[2] == 0.0

    def test_empty_passthrough(self):
        mat = CSCMatrix.empty((3, 2))
        out = filter_block_by_threshold(mat, np.full(2, -np.inf), 0.0, 3)
        assert out.nnz == 0
