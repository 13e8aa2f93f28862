"""Heap-assisted column-by-column SpGEMM — original HipMCL's CPU kernel.

For each output column j, the columns ``A_{*k}`` selected by the nonzeros
of ``B_{*j}`` form nnz(B_{*j}) sorted lists; a k-way merge over a binary
heap produces the output column in sorted order while summing duplicates.
Time is O(flops · log nnz(B_{*j})), and — the paper's point — the heap's
log factor is paid *per flop*, so the kernel degrades exactly when MCL's
matrices densify (cf grows, ~1000 nonzeros/column) and hash tables win.

This implementation is deliberately faithful (``heapq`` over per-column
cursors) rather than vectorized: it is the paper's *before* kernel.  The
simulator never runs it — a run charges :func:`heap_operation_count` for
the products the selector gives the heap — and the tests hold the ESC
kernel that produces the simulator's numbers bit-identical to it.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import ShapeError
from ..sparse import CSCMatrix


def spgemm_heap(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """Multiply ``C = A·B`` (both CSC) with per-column k-way heap merges.

    Bit-identical to :func:`~repro.spgemm.esc.spgemm_esc`: the heap pops
    in ``(row, cursor)`` order, and a cursor's id is its B-nonzero's
    position, so every output entry sums its contributions in exactly the
    element order ESC's stable expand–compress uses (a cursor's own
    duplicates pop in position order because only one entry per cursor is
    in the heap at a time).
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    shape = (a.nrows, b.ncols)
    if a.nnz == 0 or b.nnz == 0:
        return CSCMatrix.empty(shape)
    a = a.sorted() if not a.has_sorted_indices() else a
    a_indptr, a_indices, a_data = a.indptr, a.indices, a.data

    out_cols: list[np.ndarray] = []
    out_rows: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    col_counts = np.zeros(b.ncols, dtype=np.int64)

    for j in range(b.ncols):
        b_lo, b_hi = b.indptr[j], b.indptr[j + 1]
        if b_hi == b_lo:
            continue
        # One cursor per selected column of A: (row, cursor_id).
        heap: list[tuple[int, int]] = []
        cursors = []  # per list: [pos, end, scale]
        for t in range(b_lo, b_hi):
            k = b.indices[t]
            lo, hi = a_indptr[k], a_indptr[k + 1]
            if lo == hi:
                continue
            cid = len(cursors)
            cursors.append([lo + 1, hi, b.data[t]])
            heap.append((int(a_indices[lo]), cid, float(a_data[lo])))
        heapq.heapify(heap)
        rows_j: list[int] = []
        vals_j: list[float] = []
        while heap:
            row, cid, val = heapq.heappop(heap)
            contrib = val * cursors[cid][2]
            if rows_j and rows_j[-1] == row:
                vals_j[-1] += contrib
            else:
                rows_j.append(row)
                # Seed from the additive identity, like the hash table's
                # `get(r, 0.0) + v` and the ESC bincount scatter — this
                # only matters for the sign of zero (-0.0 -> +0.0).
                vals_j.append(0.0 + contrib)
            pos, end, _ = cursors[cid]
            if pos < end:
                cursors[cid][0] = pos + 1
                heapq.heappush(
                    heap, (int(a_indices[pos]), cid, float(a_data[pos]))
                )
        if rows_j:
            col_counts[j] = len(rows_j)
            out_cols.append(np.full(len(rows_j), j, dtype=np.int64))
            out_rows.append(np.asarray(rows_j, dtype=np.int64))
            out_vals.append(np.asarray(vals_j, dtype=np.float64))

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


def heap_operation_count(
    a: CSCMatrix, b: CSCMatrix, column_flops=None
) -> float:
    """Modeled comparison count: ``Σ_j flops_j · log2(max(2, k_j))``.

    ``k_j = nnz(B_{*j})`` is the heap size for output column j.  This feeds
    the machine model's time estimate for the heap kernel.  A caller that
    already holds ``flops_per_column(a, b)`` passes it as ``column_flops``.
    """
    if column_flops is None:
        from .metrics import flops_per_column

        column_flops = flops_per_column(a, b)
    return heap_operations(column_flops, b.column_lengths())


def heap_operations(column_flops, b_column_lengths) -> float:
    """:func:`heap_operation_count` from the two arrays it reads: each
    output column's flops and the stored entries of B's matching column
    (the heap size).  The SUMMA engine prices a phase from slices of the
    block's arrays with it, without building the phase's slab."""
    per_col = column_flops.astype(np.float64)
    k = np.maximum(b_column_lengths, 2).astype(np.float64)
    return float(np.sum(per_col * np.log2(k)))
