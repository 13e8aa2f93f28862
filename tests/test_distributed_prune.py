"""Tests: the §II distributed top-k protocol equals the centralized prune."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.mcl import MclOptions
from repro.mcl.distributed_prune import (
    distributed_prune_block_column,
    distributed_topk_threshold,
    filter_block_by_threshold,
)
from repro.mcl.prune import prune_columns
from repro.mpi import ProcessGrid
from repro.perf.esc import sort_rows
from repro.sparse import CSCMatrix, block_of_csc, csc_from_triples, random_csc
from repro.sparse import _compressed as _c

from helpers import assert_same_csc, shuffled_rows


def split_rows(mat, q):
    grid = ProcessGrid(q)
    return [
        block_of_csc(mat, *grid.block_bounds(mat.nrows, i), 0, mat.ncols)
        for i in range(q)
    ]


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

    def test_k_validation(self):
        with pytest.raises(ValueError):
            distributed_topk_threshold([CSCMatrix.empty((2, 2))], 0)


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
        out = filter_block_by_threshold(mat, np.array([0.5]), cutoff=0.2)
        dense = out.to_dense().ravel()
        assert dense[0] == 0.9 and dense[1] == 0.5 and dense[2] == 0.0

    def test_empty_passthrough(self):
        mat = CSCMatrix.empty((3, 2))
        out = filter_block_by_threshold(mat, np.full(2, -np.inf), 0.0)
        assert out.nnz == 0


#: Value levels of the drawn columns: few enough that ties at the
#: k-th largest value and at the cutoff are common.
LEVELS = (0.125, 0.25, 0.5, 1.0)


@st.composite
def block_columns(draw):
    """One processor column's row blocks, canonical: a few columns of
    tied values, some blocks emptied, columns shorter than k likely."""
    q = draw(st.integers(1, 3))
    n = q * draw(st.integers(1, 4)) + draw(st.integers(0, q - 1))
    ncols = draw(st.integers(1, 4))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, ncols - 1),
                  st.sampled_from(LEVELS)),
        max_size=n * ncols, unique_by=lambda cell: cell[:2],
    ))
    rows, cols, vals = (list(x) for x in zip(*cells)) if cells else ([],) * 3
    blocks = split_rows(csc_from_triples((n, ncols), rows, cols, vals), q)
    emptied = draw(st.lists(st.booleans(), min_size=q, max_size=q))
    return [
        CSCMatrix.empty(blk.shape) if drop else blk
        for blk, drop in zip(blocks, emptied)
    ]


def keys(mat):
    return (_c.expand_major(mat.indptr, mat.ncols) * mat.nrows
            + mat.indices).tolist()


class TestRowOrderIndependence:
    """The numeric pass prunes blocks whose rows are in merge order and
    sorts what the prune keeps: the prune must not care about the order
    of the rows within a column."""

    @given(
        block_columns(), st.integers(0, 5), st.sampled_from((0.0, 0.25, 0.5)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_prune_of_shuffled_blocks_sorts_to_the_canonical_prune(
        self, blocks, k, cutoff, seed
    ):
        options = MclOptions(prune_threshold=cutoff, select_number=k)
        rng = np.random.default_rng(seed)
        shuffled = [shuffled_rows(blk, rng) for blk in blocks]
        want = distributed_prune_block_column(blocks, options)
        got = distributed_prune_block_column(shuffled, options)
        for out, canonical, given_blk in zip(got, want, shuffled):
            assert_same_csc(sort_rows(out), canonical)
            # The filter keeps the order of its input.
            at = {key: pos for pos, key in enumerate(keys(given_blk))}
            kept = [at[key] for key in keys(out)]
            assert kept == sorted(kept)

    @given(
        block_columns(), st.integers(0, 5), st.integers(1, 5),
        st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_recovery_prune_sorts_unsorted_blocks_first(
        self, blocks, select, recover, cutoff, seed
    ):
        # Recovery ranks ties by position in the assembled column, so it
        # must see the blocks sorted whatever order they arrive in.
        driver = importlib.import_module("repro.mcl.hipmcl")
        if select:
            recover = min(recover, select)
        options = MclOptions(
            prune_threshold=cutoff, select_number=select,
            recover_number=recover,
        )
        grid = ProcessGrid(len(blocks))
        rng = np.random.default_rng(seed)
        shuffled = [shuffled_rows(blk, rng) for blk in blocks]
        want = driver.prune_block_column(options, grid, 0, blocks, 0)
        got = driver.prune_block_column(options, grid, 0, shuffled, 0)
        for out, canonical in zip(got, want):
            assert_same_csc(out, canonical)
