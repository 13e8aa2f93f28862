"""2-D block-distributed sparse matrices.

The global matrix is carved into √P × √P blocks along CombBLAS' near-even
split; block (i, j) lives on rank ``i·√P + j`` as a CSC submatrix in local
indices.  Storage accounting uses the DCSC footprint (paper §III-B): for a
hypersparse block the column-pointer array would dominate CSC, and DCSC is
what HipMCL actually holds in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..mpi.grid import ProcessGrid
from ..sparse import CSCMatrix, block_of_csc, csc_from_triples
from ..sparse import _compressed as _c
from ..sparse.dcsc import DCSCMatrix


@dataclass
class DistributedCSC:
    """A sparse matrix distributed over a square process grid."""

    global_shape: tuple[int, int]
    grid: ProcessGrid
    blocks: dict[tuple[int, int], CSCMatrix]

    @classmethod
    def from_global(cls, mat: CSCMatrix, grid: ProcessGrid) -> "DistributedCSC":
        """Scatter a global matrix into per-rank blocks."""
        blocks = {}
        for i in range(grid.q):
            r_lo, r_hi = grid.block_bounds(mat.nrows, i)
            for j in range(grid.q):
                c_lo, c_hi = grid.block_bounds(mat.ncols, j)
                blocks[(i, j)] = block_of_csc(mat, r_lo, r_hi, c_lo, c_hi)
        return cls(mat.shape, grid, blocks)

    def block(self, i: int, j: int) -> CSCMatrix:
        return self.blocks[(i, j)]

    def to_global(self) -> CSCMatrix:
        """Gather the blocks back into one global matrix."""
        nrows, ncols = self.global_shape
        rows_parts, cols_parts, vals_parts = [], [], []
        for (i, j), blk in self.blocks.items():
            if blk.nnz == 0:
                continue
            r_lo, _ = self.grid.block_bounds(nrows, i)
            c_lo, _ = self.grid.block_bounds(ncols, j)
            cols = _c.expand_major(blk.indptr, blk.ncols) + c_lo
            rows_parts.append(blk.indices + r_lo)
            cols_parts.append(cols)
            vals_parts.append(blk.data)
        if not rows_parts:
            return CSCMatrix.empty(self.global_shape)
        return csc_from_triples(
            self.global_shape,
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
            sum_dup=False,
        )

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks.values())

    def block_storage_bytes(self, i: int, j: int) -> int:
        """DCSC footprint of block (i, j) — what a broadcast carries."""
        blk = self.blocks[(i, j)]
        nzc = int(np.count_nonzero(blk.column_lengths()))
        # ir + num (16 B/nnz) + jc + cp (8 B each per non-empty column).
        return 16 * blk.nnz + 16 * nzc + 8

    def to_dcsc_block(self, i: int, j: int) -> DCSCMatrix:
        """The block as it is actually stored (hypersparse-safe)."""
        return DCSCMatrix.from_csc(self.blocks[(i, j)])

    def imbalance(self) -> float:
        """max/mean nonzeros per block (load-balance diagnostic)."""
        counts = [b.nnz for b in self.blocks.values()]
        mean = sum(counts) / len(counts)
        return (max(counts) / mean) if mean > 0 else 1.0

    def validate_against(self, mat: CSCMatrix, tol: float = 0.0) -> bool:
        """True when the distributed content equals the global matrix."""
        if mat.shape != self.global_shape:
            raise ShapeError(
                f"shape mismatch: {mat.shape} vs {self.global_shape}"
            )
        return self.to_global().same_pattern_and_values(mat, tol=tol)
