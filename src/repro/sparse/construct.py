"""Constructors for sparse matrices: triples, identity, random, blocks.

These are the substrate the network generators and the 2-D distribution
layer build on.  Everything is vectorized; the only loops are over block
grids (O(√P), not O(nnz)).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..util.rng import as_generator
from . import _compressed as _c
from .csc import CSCMatrix


def csc_from_triples(shape, rows, cols, vals, *, sum_dup: bool = True) -> CSCMatrix:
    """Build a CSC matrix from COO triples.

    Duplicate coordinates are summed when ``sum_dup`` (the semantics the
    merge layer relies on).  Output has sorted indices.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    vals = np.asarray(vals, dtype=_c.VALUE_DTYPE)
    if not (len(rows) == len(cols) == len(vals)):
        raise ShapeError(
            f"triple arrays must have equal length, got "
            f"{len(rows)}/{len(cols)}/{len(vals)}"
        )
    nrows, ncols = int(shape[0]), int(shape[1])
    _c.check_dims(nrows, ncols, len(vals))
    # Range-checked in the callers' dtype, before the narrowing cast
    # (which would wrap an id ≥ 2³¹ into range).
    if len(rows):
        if rows.min() < 0 or rows.max() >= nrows:
            raise ShapeError(f"row ids out of range [0, {nrows})")
        if cols.min() < 0 or cols.max() >= ncols:
            raise ShapeError(f"col ids out of range [0, {ncols})")
    rows = rows.astype(_c.INDEX_DTYPE, copy=False)
    cols = cols.astype(_c.INDEX_DTYPE, copy=False)
    # Stable sort of the fused (col, row) key (rows < nrows by the range
    # check above): duplicate coordinates stay in input order.
    order = np.argsort(cols * np.int64(nrows) + rows, kind="stable")
    indptr = _c.compress_major(cols, ncols)
    mat = CSCMatrix(shape, indptr, rows[order], vals[order], check=False)
    if sum_dup:
        mat = mat.sum_duplicates()
    return mat


def identity_csc(n: int, value: float = 1.0) -> CSCMatrix:
    """``value`` times the n×n identity, in CSC."""
    idx = np.arange(n, dtype=_c.INDEX_DTYPE)
    return CSCMatrix(
        (n, n),
        np.arange(n + 1, dtype=_c.INDEX_DTYPE),
        idx,
        np.full(n, value, dtype=_c.VALUE_DTYPE),
        check=False,
    )


def random_csc(
    shape,
    density: float,
    seed=None,
    *,
    values: str = "uniform",
) -> CSCMatrix:
    """Uniformly random sparse matrix with expected ``density`` fill.

    ``values`` selects the entry distribution: ``"uniform"`` in (0, 1],
    ``"ones"`` for pattern-only work, or ``"lognormal"`` to mimic
    similarity-score-like heavy tails.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = as_generator(seed)
    nrows, ncols = int(shape[0]), int(shape[1])
    target = int(round(density * nrows * ncols))
    if target == 0 or nrows == 0 or ncols == 0:
        return CSCMatrix.empty(shape)
    # Sample linear coordinates without replacement when feasible, with
    # replacement + dedup otherwise (the usual sprand compromise).
    total = nrows * ncols
    if total <= 8 * target:
        lin = rng.choice(total, size=min(target, total), replace=False)
    else:
        lin = np.unique(rng.integers(0, total, size=target))
    rows = (lin % nrows).astype(_c.INDEX_DTYPE)
    cols = (lin // nrows).astype(_c.INDEX_DTYPE)
    n = len(lin)
    if values == "uniform":
        vals = rng.uniform(np.finfo(float).tiny, 1.0, size=n)
    elif values == "ones":
        vals = np.ones(n)
    elif values == "lognormal":
        vals = rng.lognormal(mean=0.0, sigma=1.0, size=n)
    else:
        raise ValueError(f"unknown values distribution {values!r}")
    return csc_from_triples(shape, rows, cols, vals, sum_dup=False)


def hstack_csc(blocks: list[CSCMatrix]) -> CSCMatrix:
    """Concatenate CSC matrices horizontally (same row count).

    The inverse of :meth:`CSCMatrix.column_slab`; used to reassemble the
    output of HipMCL's phased expansion and of multi-GPU column splitting.
    """
    if not blocks:
        raise ValueError("need at least one block")
    nrows = blocks[0].nrows
    for b in blocks:
        if b.nrows != nrows:
            raise ShapeError(
                f"hstack row mismatch: {b.nrows} != {nrows}"
            )
    ncols = sum(b.ncols for b in blocks)
    _c.check_dims(ncols, sum(b.nnz for b in blocks))
    indptr = np.zeros(ncols + 1, dtype=_c.INDEX_DTYPE)
    col_off = 0
    nnz_off = 0
    parts_idx, parts_val = [], []
    for b in blocks:
        indptr[col_off + 1 : col_off + b.ncols + 1] = b.indptr[1:] + nnz_off
        col_off += b.ncols
        nnz_off += b.nnz
        parts_idx.append(b.indices)
        parts_val.append(b.data)
    indices = (
        np.concatenate(parts_idx) if parts_idx else np.empty(0, _c.INDEX_DTYPE)
    )
    data = np.concatenate(parts_val) if parts_val else np.empty(0, _c.VALUE_DTYPE)
    return CSCMatrix((nrows, ncols), indptr, indices, data, check=False)


def block_of_csc(
    mat: CSCMatrix, row_lo: int, row_hi: int, col_lo: int, col_hi: int
) -> CSCMatrix:
    """Extract the dense-index block ``[row_lo:row_hi, col_lo:col_hi)``.

    Used by the 2-D distribution layer to carve the global matrix into
    per-rank submatrices.  O(nnz of the column slab).
    """
    slab = mat.column_slab(col_lo, col_hi)
    keep = (slab.indices >= row_lo) & (slab.indices < row_hi)
    cols = _c.expand_major(slab.indptr, slab.ncols)[keep]
    return CSCMatrix(
        (row_hi - row_lo, col_hi - col_lo),
        _c.compress_major(cols, slab.ncols),
        slab.indices[keep] - row_lo,
        slab.data[keep],
        check=False,
    )
