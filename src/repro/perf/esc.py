"""ESC SpGEMM — the numeric kernel behind ``spgemm_esc``.

Output coordinates are encoded as ``col·nrows + row`` and the products are
scattered into a dense accumulator with ``np.bincount``, which sums
strictly in element order.  The expansion enumerates products in B-entry
order, i.e. by (output column, position of the B nonzero, row of A) — for
one output coordinate that is the order in which the heap kernel pops its
cursors and the hash kernel probes its table, so the three kernels produce
bit-identical sums.  This left-to-right order is the library's canonical
summation order.

When the dense accumulator would be disproportionately large
(:func:`dense_pays`) the kernel instead sorts the combined key with one
*stable* argsort, which keeps the same element order inside every run, and
sums the runs with the same ordered group sum.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSCMatrix
from ..sparse import _compressed as _c
from .arena import global_arena

#: Use the dense accumulator only while ``nrows·ncols`` stays below this
#: cap and within a reasonable multiple of the expansion size.
DENSE_CELL_LIMIT = 1 << 23
DENSE_WASTE_FACTOR = 32


def dense_pays(cells: int, total: int) -> bool:
    """Price rule: scan ``cells`` of dense scratch, or sort ``total`` keys?"""
    return cells <= DENSE_CELL_LIMIT and cells <= DENSE_WASTE_FACTOR * total


def expand_keys(a: CSCMatrix, b_indptr, b_indices, reps, ends, total: int):
    """Arena-backed pattern expansion of ``A·B`` over B's stored entries.

    ``b_indptr``/``b_indices`` are B (or a rebased column slab of it),
    ``reps`` the products each B entry generates and ``ends`` their
    running sum.  Returns, per product in B-entry order, the flat output
    coordinate ``col·nrows + row`` and the slot of its A operand.
    """
    arena = global_arena()
    starts = a.indptr[b_indices]
    jump = starts - (ends - reps)
    a_slot = arena.buffer("esc:a_slot", total, np.int64)
    np.add(arena.arange(total), np.repeat(jump, reps), out=a_slot)
    rows = np.take(
        a.indices, a_slot, mode="clip",
        out=arena.buffer("esc:rows", total, np.int64),
    )
    b_key = _c.expand_major(b_indptr, len(b_indptr) - 1)
    b_key *= np.int64(a.nrows)
    key = np.repeat(b_key, reps)
    key += rows
    return key, a_slot


def _expand(a: CSCMatrix, b: CSCMatrix, total: int, reps: np.ndarray,
            ends: np.ndarray):
    """Flat coordinate key and numeric product per flop."""
    key, a_slot = expand_keys(a, b.indptr, b.indices, reps, ends, total)
    prod = np.take(
        a.data, a_slot, mode="clip",
        out=global_arena().buffer("esc:prod", total, np.float64),
    )
    prod *= np.repeat(b.data, reps)
    return key, prod


def expand_compress(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """``C = A·B`` for non-empty operands of matching inner dimension."""
    shape = (a.nrows, b.ncols)
    reps = a.column_lengths()[b.indices]
    ends = np.cumsum(reps)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return CSCMatrix.empty(shape)
    key, prod = _expand(a, b, total, reps, ends)
    n2 = a.nrows * b.ncols
    if dense_pays(n2, total):
        return _compress_dense(shape, key, prod, n2)
    return _compress_sorted(shape, key, prod)


def _compress_dense(shape, key, prod, n2: int) -> CSCMatrix:
    arena = global_arena()
    nrows = shape[0]
    dense = np.bincount(key, weights=prod, minlength=n2)
    flags = arena.flags("esc:occupied", n2)
    flags[key] = True
    pos = np.flatnonzero(flags)
    flags[pos] = False  # restore the all-False invariant, O(nnz)
    vals = dense[pos]
    bounds = np.arange(shape[1] + 1, dtype=np.int64) * nrows
    indptr = np.searchsorted(pos, bounds).astype(_c.INDEX_DTYPE)
    rows = pos % nrows
    return CSCMatrix(shape, indptr, rows, vals, check=False)


def _compress_sorted(shape, key, prod) -> CSCMatrix:
    nrows = shape[0]
    order = np.argsort(key, kind="stable")
    key = key[order]
    prod = prod[order]
    boundary = np.empty(len(key), dtype=bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    group_starts = np.flatnonzero(boundary)
    ukey = key[group_starts]
    vals = _c.groupsum_ordered(prod, boundary)
    bounds = np.arange(shape[1] + 1, dtype=np.int64) * nrows
    indptr = np.searchsorted(ukey, bounds).astype(_c.INDEX_DTYPE)
    rows = ukey % nrows
    return CSCMatrix(shape, indptr, rows, vals, check=False)
