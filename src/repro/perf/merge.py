"""SpKAdd — the numeric kernel behind ``merge_lists`` and ``spkadd_merge``.

The summation ``C_ij = Σ_k A_ik·B_kj`` adds k canonical CSC blocks (every
column sorted by row, no duplicate coordinate — what ``spgemm_esc`` and
this kernel itself produce).  :func:`merge_triples` adds them as a
left-to-right chain ``((l₁ + l₂) + l₃) + …`` of SciPy's compiled sorted
two-pointer addition ``csr_plus_csr``, called under the §III-B identity
(a CSC matrix is its transpose in CSR) on the operands' own
``(indptr, rows, vals)`` arrays: no expansion to coordinates, no key, no
sort, no ``nrows·ncols`` accumulator.

Left-to-right is not a style choice.  The library's canonical summation
order for one coordinate is ``0.0 + v₁ + v₂ + …`` in list order (what a
sequential accumulator over the lists computes), and ``0.0 + v₁`` is
``v₁`` exactly, so the chain reproduces it bit for bit; a balanced
pairing ``(l₁ + l₂) + (l₃ + l₄)`` rounds differently.

``csr_plus_csr`` drops cells whose sum is exactly 0.0 where this library
keeps every structural entry.  A sum of strictly positive values cannot
be zero, so the chain runs only when every operand's values are > 0 (one
pass per list; NaN, −0.0, stored zeros and negative weights all fail it
— never an MCL iterate).  Otherwise the lists are concatenated, stably
sorted by coordinate and group-summed in order, which keeps the zeros.

Like the multiply, the compiled code does not bounds-check, and it takes
the two-pointer pass only on canonical operands: callers vouch that every
list is sorted and duplicate-free per column.
"""

from __future__ import annotations

import numpy as np

from ..sparse import _compressed as _c


def merge_triples(lists, shape):
    """Add canonical CSC lists; returns the sum's ``(indptr, rows, vals)``.

    ``lists`` must be non-empty lists (the caller strips empties), all of
    the same block shape.
    """
    if all(t.vals.min() > 0 for t in lists):
        return _add_chain(lists, shape)
    return _sort_and_sum(lists, shape)


def _add_chain(lists, shape):
    # Imported at first use: ``import repro`` stays SciPy-free.
    from scipy.sparse import _sparsetools

    nrows, ncols = shape
    first = lists[0]
    indptr, rows, vals = first.indptr, first.rows, first.vals
    for t in lists[1:]:
        bound = len(vals) + len(t)
        out_indptr = np.empty(ncols + 1, dtype=_c.INDEX_DTYPE)
        out_rows = np.empty(bound, dtype=_c.INDEX_DTYPE)
        out_vals = np.empty(bound, dtype=_c.VALUE_DTYPE)
        _sparsetools.csr_plus_csr(
            ncols, nrows, indptr, rows, vals, t.indptr, t.rows, t.vals,
            out_indptr, out_rows, out_vals,
        )
        nnz = out_indptr[-1]
        indptr, rows, vals = out_indptr, out_rows[:nnz], out_vals[:nnz]
    return indptr, rows, vals


def _sort_and_sum(lists, shape):
    nrows, ncols = shape
    key = np.concatenate([t.cols for t in lists])
    key *= np.int64(nrows)
    key += np.concatenate([t.rows for t in lists])
    vals = np.concatenate([t.vals for t in lists])
    # A stable sort keeps colliding entries in concatenation (list) order.
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = vals[order]
    boundary = np.empty(len(key), dtype=bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    out_cols, out_rows = np.divmod(key[boundary], np.int64(nrows))
    out_vals = _c.groupsum_ordered(vals, boundary)
    return _c.compress_major(out_cols, ncols), out_rows, out_vals
