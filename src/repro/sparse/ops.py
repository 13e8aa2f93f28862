"""Element-wise and structural operations on sparse matrices.

These are CombBLAS-style primitives the MCL driver composes: addition,
Hadamard (element-wise) power/product, threshold filtering, and column
normalization.  All are vectorized over the nnz arrays.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import _compressed as _c
from .csc import CSCMatrix


def add(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """Sparse matrix addition ``A + B`` in CSC. O((nnzA+nnzB) log)."""
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    cols = np.concatenate(
        (
            _c.expand_major(a.indptr, a.ncols),
            _c.expand_major(b.indptr, b.ncols),
        )
    )
    rows = np.concatenate((a.indices, b.indices))
    vals = np.concatenate((a.data, b.data))
    order = np.lexsort((rows, cols))
    indptr = _c.compress_major(cols[order], a.ncols)
    out = CSCMatrix(a.shape, indptr, rows[order], vals[order], check=False)
    return out.sum_duplicates().pruned_zeros()


def hadamard_power(mat: CSCMatrix, exponent: float) -> CSCMatrix:
    """Element-wise power ``A .^ exponent`` (MCL's inflation kernel).

    Only stored entries are touched, so the zero pattern is preserved
    (and the result shares ``mat``'s read-only ``indptr`` and
    ``indices``); requires a positive exponent because MCL matrices are
    non-negative and ``0^negative`` is undefined.
    """
    if exponent <= 0:
        raise ValueError(f"inflation exponent must be positive, got {exponent}")
    return CSCMatrix(
        mat.shape, mat.indptr, mat.indices, np.power(mat.data, exponent),
        check=False,
    )


def filter_threshold(mat: CSCMatrix, threshold: float) -> CSCMatrix:
    """Keep entries with value >= ``threshold`` (MCL's cutoff prune)."""
    keep = mat.data >= threshold
    cols = _c.expand_major(mat.indptr, mat.ncols)[keep]
    indptr = _c.compress_major(cols, mat.ncols)
    return CSCMatrix(
        mat.shape, indptr, mat.indices[keep], mat.data[keep], check=False
    )


def normalize_columns(mat: CSCMatrix) -> CSCMatrix:
    """Rescale each non-empty column to sum to 1 (column stochastic).

    Empty columns stay empty — MCL treats vertices with no surviving
    transitions as singleton attractors, resolved at interpretation time.
    """
    sums = mat.column_sums()
    factors = np.ones_like(sums)
    nonzero = sums != 0
    factors[nonzero] = 1.0 / sums[nonzero]
    return mat.scale_columns(factors)


def column_max(mat: CSCMatrix) -> np.ndarray:
    """Maximum stored value per column (0 for empty columns).

    Feeds MCL's chaos/convergence metric.
    """
    out = np.zeros(mat.ncols, dtype=_c.VALUE_DTYPE)
    lens = mat.column_lengths()
    nonempty = np.flatnonzero(lens)
    if len(nonempty):
        out[nonempty] = np.maximum.reduceat(mat.data, mat.indptr[nonempty])
    return out


def column_sum_of_squares(mat: CSCMatrix) -> np.ndarray:
    """Sum of squared stored values per column (0 for empty columns)."""
    out = np.zeros(mat.ncols, dtype=_c.VALUE_DTYPE)
    lens = mat.column_lengths()
    nonempty = np.flatnonzero(lens)
    if len(nonempty):
        out[nonempty] = np.add.reduceat(mat.data**2, mat.indptr[nonempty])
    return out


def add_self_loops(mat: CSCMatrix, weight: float | None = None) -> CSCMatrix:
    """Ensure every diagonal entry exists (MCL input preprocessing).

    MCL adds self-loops so the random walk is aperiodic.  The classic mcl
    binary uses the column's maximum as the loop weight when ``weight`` is
    ``None``; a fixed positive ``weight`` may be supplied instead.
    """
    if mat.nrows != mat.ncols:
        raise ShapeError(f"self loops need a square matrix, got {mat.shape}")
    n = mat.nrows
    if weight is not None:
        if weight <= 0:
            raise ValueError(f"self-loop weight must be positive, got {weight}")
        w = np.full(n, weight, dtype=_c.VALUE_DTYPE)
    else:
        w = column_max(mat)
        w[w == 0] = 1.0
    # Remove any existing diagonal first so the loop weight replaces it.
    cols = _c.expand_major(mat.indptr, mat.ncols)
    keep = mat.indices != cols
    cols = cols[keep]
    off_diag = CSCMatrix(
        mat.shape,
        _c.compress_major(cols, mat.ncols),
        mat.indices[keep],
        mat.data[keep],
        check=False,
    ).sum_duplicates().pruned_zeros()
    # ``add(off_diag, loops)`` without its sort: the canonical
    # off-diagonal entries keep their order, and each column's loop (never
    # zero, never a duplicate) goes in after the entries above the
    # diagonal — one linear pass.
    rows, vals = off_diag.indices, off_diag.data
    cols = _c.expand_major(off_diag.indptr, n)
    below = rows > cols
    diag = np.arange(n, dtype=_c.INDEX_DTYPE)
    at = off_diag.indptr[1:] + diag - np.bincount(cols[below], minlength=n)
    out_rows = np.empty(len(rows) + n, dtype=_c.INDEX_DTYPE)
    out_vals = np.empty(len(rows) + n, dtype=_c.VALUE_DTYPE)
    slot = np.arange(len(rows)) + cols + below
    out_rows[slot] = rows
    out_vals[slot] = vals
    out_rows[at] = diag
    out_vals[at] = w
    return CSCMatrix(
        mat.shape, off_diag.indptr + np.arange(n + 1, dtype=_c.INDEX_DTYPE),
        out_rows, out_vals, check=False,
    )


def symmetrize_max(mat: CSCMatrix) -> CSCMatrix:
    """Return ``max(A, Aᵀ)`` element-wise (similarity-graph preprocessing)."""
    if mat.nrows != mat.ncols:
        raise ShapeError(f"symmetrize needs a square matrix, got {mat.shape}")
    t = mat.transpose()
    both = add(mat, t)  # union pattern with summed values (values replaced below)
    # Recompute as max via the two aligned patterns: lookup values of A and
    # Aᵀ at every union coordinate.
    a = mat.sum_duplicates()
    b = t.sum_duplicates()
    key_u = (
        _c.expand_major(both.indptr, both.ncols) * np.int64(both.nrows)
        + both.indices
    )
    vals = np.zeros(both.nnz, dtype=_c.VALUE_DTYPE)
    for m in (a, b):
        key_m = (
            _c.expand_major(m.indptr, m.ncols) * np.int64(m.nrows)
            + m.indices
        )
        pos = np.searchsorted(key_m, key_u)
        pos_c = np.minimum(pos, max(len(key_m) - 1, 0))
        hit = (pos < len(key_m)) & (key_m[pos_c] == key_u) if len(key_m) else None
        if hit is not None:
            np.maximum(vals, np.where(hit, m.data[pos_c], 0.0), out=vals)
    return CSCMatrix(
        both.shape, both.indptr.copy(), both.indices.copy(), vals, check=False
    ).pruned_zeros()
