"""Hash-table column-by-column SpGEMM (Nagasaka et al., adopted in §VI).

For each output column, intermediate products are accumulated into a hash
table keyed by row index; after all flops for the column are consumed the
table is dumped and sorted.  Insertion is O(1) amortized — no per-flop log
factor — so the kernel overtakes the heap exactly when cf grows large,
which is the paper's density regime for MCL (≈1000 nonzeros/column).

The table here is CPython's ``dict`` (an open-addressing hash table in C),
which reproduces the algorithm's structure and its asymptotics; the upfront
sizing trick of the original (table sized to the column's flops) is modeled
in :func:`hash_operation_count` for the machine model.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..sparse import CSCMatrix

#: Columns whose flops exceed this threshold accumulate through a dense
#: scratch array (one unbuffered scatter-add) instead of the per-flop
#: Python dict loop.  The dict path below the threshold keeps the
#: algorithm's structure (and :func:`hash_operation_count`'s model)
#: faithful where the batched version would not pay off anyway.
SPA_FLOPS_THRESHOLD = 128


def _spa_column(a, keys, scales, scratch, touched):
    """Accumulate one output column through the dense scratch (SPA).

    ``np.add.at`` is unbuffered — it applies updates strictly in element
    order, which is the same order the dict path's sequential loop uses,
    so the per-row sums are bit-identical.  The dump sorts by row id just
    as the dict path's argsort does.
    """
    parts_r = []
    parts_v = []
    for k, scale in zip(keys, scales):
        lo, hi = a.indptr[k], a.indptr[k + 1]
        parts_r.append(a.indices[lo:hi])
        parts_v.append(a.data[lo:hi] * scale)
    rows = np.concatenate(parts_r)
    vals = np.concatenate(parts_v)
    np.add.at(scratch, rows, vals)
    touched[rows] = True
    rows_j = np.flatnonzero(touched)
    vals_j = scratch[rows_j].copy()
    scratch[rows_j] = 0.0
    touched[rows_j] = False
    return rows_j, vals_j


def spgemm_hash(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """Multiply ``C = A·B`` (both CSC) with per-column hash accumulation."""
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    shape = (a.nrows, b.ncols)
    if a.nnz == 0 or b.nnz == 0:
        return CSCMatrix.empty(shape)
    a_indptr, a_indices, a_data = a.indptr, a.indices, a.data

    a_col_lens = a.column_lengths()
    scratch = np.zeros(a.nrows)
    touched = np.zeros(a.nrows, dtype=bool)

    col_counts = np.zeros(b.ncols, dtype=np.int64)
    out_rows: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []

    for j in range(b.ncols):
        b_lo, b_hi = b.indptr[j], b.indptr[j + 1]
        if b_hi == b_lo:
            continue
        keys = b.indices[b_lo:b_hi]
        if int(a_col_lens[keys].sum()) > SPA_FLOPS_THRESHOLD:
            rows_j, vals_j = _spa_column(
                a, keys, b.data[b_lo:b_hi], scratch, touched
            )
            if not len(rows_j):
                continue
            col_counts[j] = len(rows_j)
            out_rows.append(rows_j)
            out_vals.append(vals_j)
            continue
        table: dict[int, float] = {}
        get = table.get
        for t in range(b_lo, b_hi):
            k = b.indices[t]
            scale = b.data[t]
            lo, hi = a_indptr[k], a_indptr[k + 1]
            rows = a_indices[lo:hi]
            vals = a_data[lo:hi] * scale
            for r, v in zip(rows.tolist(), vals.tolist()):
                table[r] = get(r, 0.0) + v
        if not table:
            continue
        # Sort the dumped table by row id — the final step of the
        # algorithm (hash tables do not preserve order).
        rows_j = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
        vals_j = np.fromiter(table.values(), dtype=np.float64, count=len(table))
        order = np.argsort(rows_j)
        col_counts[j] = len(rows_j)
        out_rows.append(rows_j[order])
        out_vals.append(vals_j[order])

    if not out_rows:
        return CSCMatrix.empty(shape)
    indptr = np.concatenate(([0], np.cumsum(col_counts)))
    return CSCMatrix(
        shape,
        indptr,
        np.concatenate(out_rows),
        np.concatenate(out_vals),
        check=False,
    )


def hash_operation_count(
    a: CSCMatrix, b: CSCMatrix, c_nnz: int, total_flops=None
) -> float:
    """Modeled operation count: one probe/update per flop plus the final
    per-column sort, ``nnz(C) · log2(nnz(C)/ncols)`` amortized.

    Unlike the heap kernel the cost has *no* log factor on the flops term —
    this difference is what the machine model turns into the heap/hash
    crossover of §VI.  A caller that already holds ``flops(a, b)`` passes
    it as ``total_flops``.
    """
    if total_flops is None:
        from .metrics import flops

        total_flops = flops(a, b)
    return hash_operations(
        total_flops, c_nnz, int((b.column_lengths() > 0).sum())
    )


def hash_operations(total_flops, c_nnz: int, b_nonempty_columns: int):
    """:func:`hash_operation_count` from the three counts it reads:
    flops, ``nnz(C)`` and B's non-empty columns.  The SUMMA engine prices
    a phase from counts over the block's column pointer with it, without
    building the phase's slab."""
    f = float(total_flops)
    if c_nnz <= 0:
        return f
    used = max(1, b_nonempty_columns)
    avg_col = max(2.0, c_nnz / used)
    return f + c_nnz * np.log2(avg_col)
