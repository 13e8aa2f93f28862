"""ESC SpGEMM — the numeric kernel behind ``spgemm_esc``.

The paper's CPU kernels are column-by-column Gustavson products, and its
§III-B observes that a CSC matrix *is* its transpose stored in CSR (the
identity :mod:`repro.sparse.convert` implements), so ``C = A·B`` with all
three in CSC is ``Cᵀ = Bᵀ·Aᵀ`` in CSR on the very same arrays.
:func:`expand_compress` therefore hands the operands' own CSC arrays, roles
of A and B swapped, to SciPy's compiled row-wise two-pass product
(``csr_matmat_maxnnz`` + ``csr_matmat``): one exact structural count, one
numeric pass over a row accumulator, no conversion and no copy.

That accumulator starts every output cell at 0.0 and adds one separately
rounded product at a time in B-entry order, i.e. by (output column,
position of the B nonzero, row of A) — for one output coordinate that is
the order in which the heap kernel pops its cursors and the hash kernel
probes its table, so the three kernels produce bit-identical sums.  This
left-to-right order is the library's canonical summation order.

SciPy drops cells whose sum is exactly 0.0 where this library keeps every
structural entry.  The numeric pass reports how many cells it kept; when
that differs from the structural count (cancellation, stored zeros,
underflow — never on a positive MCL matrix) the product is recomputed by
expand – stable key sort – ordered group sum, which keeps them.

The compiled code does not bounds-check: operands must satisfy the CSC
invariants :func:`repro.sparse._compressed.validate` enforces on every
matrix built from outside input (``check=False`` callers vouch for them).

``expand_keys`` and ``dense_pays`` are the expansion core and price rule of
the values-free symbolic pass (:mod:`repro.spgemm.symbolic`).
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSCMatrix
from ..sparse import _compressed as _c
from .arena import global_arena

#: Use dense ``nrows·ncols`` scratch (the symbolic pass's occupancy flags)
#: only while it stays below this cap and within a reasonable multiple of
#: the element count.
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


def expand_compress(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """``C = A·B`` for non-empty operands of matching inner dimension."""
    # Imported at first use: ``import repro`` stays SciPy-free.
    from scipy.sparse import _sparsetools

    nrows, ncols = shape = (a.nrows, b.ncols)
    structural = _sparsetools.csr_matmat_maxnnz(
        ncols, nrows, b.indptr, b.indices, a.indptr, a.indices
    )
    indptr = np.empty(ncols + 1, dtype=_c.INDEX_DTYPE)
    rows = np.empty(structural, dtype=_c.INDEX_DTYPE)
    vals = np.empty(structural, dtype=_c.VALUE_DTYPE)
    _sparsetools.csr_matmat(
        ncols, nrows, b.indptr, b.indices, b.data,
        a.indptr, a.indices, a.data, indptr, rows, vals,
    )
    if indptr[-1] != structural:
        return _compress_sorted(shape, *_expand(a, b))
    # The pass emits each column in reverse discovery order.  Transposing
    # there and back is a counting sort, O(nnz(C) + nrows + ncols).
    t_indptr = np.empty(nrows + 1, dtype=_c.INDEX_DTYPE)
    t_cols = np.empty_like(rows)
    t_vals = np.empty_like(vals)
    _sparsetools.csr_tocsc(ncols, nrows, indptr, rows, vals,
                           t_indptr, t_cols, t_vals)
    _sparsetools.csr_tocsc(nrows, ncols, t_indptr, t_cols, t_vals,
                           indptr, rows, vals)
    return CSCMatrix(shape, indptr, rows, vals, check=False)


def _expand(a: CSCMatrix, b: CSCMatrix):
    """Flat coordinate key and numeric product per flop, B-entry order."""
    reps = a.column_lengths()[b.indices]
    ends = np.cumsum(reps)
    key, a_slot = expand_keys(
        a, b.indptr, b.indices, reps, ends, int(ends[-1])
    )
    return key, a.data[a_slot] * np.repeat(b.data, reps)


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
