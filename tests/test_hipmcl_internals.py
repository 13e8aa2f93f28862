"""Unit tests for HipMCL driver internals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_csc
from repro.machine import SUMMIT_LIKE
from repro.mcl.hipmcl import (
    STAGE_ACCOUNTS,
    _assemble_block_column,
    _grouped_stage_seconds,
    _split_block_column,
)
from repro.mpi import ProcessGrid, VirtualComm
from repro.sparse import CSCMatrix, csc_from_triples, random_csc
from repro.sparse import _compressed as _c
from repro.summa import DistributedCSC


class TestStageGrouping:
    def test_all_buckets_present_even_when_idle(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        out = _grouped_stage_seconds(comm)
        assert set(out) == set(STAGE_ACCOUNTS)
        assert all(v == 0.0 for v in out.values())

    def test_transfers_fold_into_spgemm(self):
        comm = VirtualComm(1, SUMMIT_LIKE)
        comm.clocks[0].cpu.schedule(0, 1.0, "local_spgemm")
        comm.clocks[0].cpu.schedule(0, 0.5, "h2d")
        comm.clocks[0].gpu.schedule(0, 0.25, "d2h")
        out = _grouped_stage_seconds(comm)
        assert out["local_spgemm"] == 1.75

    def test_estimation_buckets(self):
        comm = VirtualComm(1, SUMMIT_LIKE)
        comm.clocks[0].cpu.schedule(0, 1.0, "mem_estimation")
        comm.clocks[0].cpu.schedule(0, 2.0, "est_bcast")
        out = _grouped_stage_seconds(comm)
        assert out["mem_estimation"] == 3.0

    def test_prune_buckets_include_exchange(self):
        comm = VirtualComm(1, SUMMIT_LIKE)
        comm.clocks[0].cpu.schedule(0, 1.0, "prune")
        comm.clocks[0].cpu.schedule(0, 0.5, "topk_exchange")
        assert _grouped_stage_seconds(comm)["prune"] == 1.5

    def test_unknown_accounts_fold_into_other(self):
        comm = VirtualComm(1, SUMMIT_LIKE)
        comm.clocks[0].cpu.schedule(0, 0.7, "inflation")
        comm.clocks[0].cpu.schedule(0, 0.3, "something_new")
        assert _grouped_stage_seconds(comm)["other"] == 1.0


class TestBlockColumnRoundtrip:
    def test_assemble_split_roundtrip(self):
        mat = random_csc((50, 50), 0.15, seed=8)
        grid = ProcessGrid(4)
        dist = DistributedCSC.from_global(mat, grid)
        n = 50
        for j in range(grid.q):
            assembled = _assemble_block_column(
                [dist.block(i, j) for i in range(grid.q)]
            )
            c_lo, c_hi = grid.block_bounds(n, j)
            assert np.allclose(
                assembled.to_dense(), mat.to_dense()[:, c_lo:c_hi]
            )
            back = _split_block_column(assembled, grid)
            for i in range(grid.q):
                assert np.allclose(
                    back[i].to_dense(), dist.block(i, j).to_dense()
                )

    def test_assemble_empty_column_block(self):
        blocks = [CSCMatrix.empty((5, 4)) for _ in range(2)]
        out = _assemble_block_column(blocks)
        assert out.nnz == 0 and out.shape == (10, 4)


@st.composite
def block_columns(draw):
    """The q canonical row blocks of one block column (grid row bounds),
    some or all of them empty."""
    q = draw(st.integers(1, 4))
    grid = ProcessGrid(q)
    nrows = draw(st.integers(0, 24))
    width = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for i in range(q):
        lo, hi = grid.block_bounds(nrows, i)
        density = draw(st.sampled_from([0.0, 0.2, 1.0]))
        shape = (hi - lo, width)
        dense = rng.random(shape) * (rng.random(shape) < density)
        blocks.append(CSCMatrix.from_dense(dense))
    return grid, blocks


@given(block_columns())
@settings(max_examples=200, deadline=None)
def test_assemble_block_column_matches_triples(column):
    # The gather equals the sorting construction from the blocks' global
    # triples, and the split gives every block back.
    grid, blocks = column
    rows, cols, vals = [], [], []
    r_lo = 0
    for blk in blocks:
        rows.append(blk.indices + r_lo)
        cols.append(_c.expand_major(blk.indptr, blk.ncols))
        vals.append(blk.data)
        r_lo += blk.nrows
    stacked = _assemble_block_column(blocks)
    assert_same_csc(
        stacked,
        csc_from_triples(
            (r_lo, blocks[0].ncols), np.concatenate(rows),
            np.concatenate(cols), np.concatenate(vals), sum_dup=False,
        ),
    )
    back = _split_block_column(stacked, grid)
    assert len(back) == len(blocks)
    for got, want in zip(back, blocks):
        assert_same_csc(got, want)
