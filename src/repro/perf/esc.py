"""ESC SpGEMM — the numeric kernel behind ``spgemm_esc``.

The paper's CPU kernels are column-by-column Gustavson products, and its
§III-B observes that a CSC matrix *is* its transpose stored in CSR:
CSC(A)'s ``(indptr, indices, data)`` are CSR(Aᵀ)'s, so ``C = A·B`` with
all three in CSC is ``Cᵀ = Bᵀ·Aᵀ`` in CSR on the very same arrays, and
the library has no CSR class and no format conversion.
:func:`expand_compress` therefore hands the operands' own CSC arrays, roles
of A and B swapped, to SciPy's compiled row-wise product ``csr_matmat``:
one numeric pass over a row accumulator, no conversion and no copy.

That accumulator starts every output cell at 0.0 and adds one separately
rounded product at a time in B-entry order, i.e. by (output column,
position of the B nonzero, row of A) — for one output coordinate that is
the order in which the heap kernel pops its cursors and the hash kernel
probes its table, so the three kernels produce bit-identical sums.  This
left-to-right order is the library's canonical summation order.

**Sizing the output.**  The pass writes into buffers it does not check.
On positive operands (an MCL iterate) they are sized *one-phase*
(Nagasaka et al., arXiv:1804.01698) from the flops bound
``Σ_j min(flops_j, nrows)`` — computed here, from the operands, never
taken from a caller — and only the ``indptr[-1]`` entries written are
ever read.  SciPy drops cells whose sum is exactly 0.0 where this library
keeps every structural entry; positive operands whose smallest product
does not underflow cannot produce one, so the count the pass reports is
the structural count.  Every other input (a value ≤ 0, −0.0, NaN, an
underflowing minimum) takes the two-pass form: ``csr_matmat_maxnnz``
counts the structure exactly, and when the numeric pass kept fewer cells
than that the product is recomputed by expand – stable key sort – ordered
group sum, which keeps them.

**Kernel order.**  The pass emits each column's rows in reverse
discovery order, and that is the order :func:`expand_compress` returns
them in: C column-major, every column duplicate-free but not sorted, its
``indptr[-1]`` entries copied out of the bound-sized buffers so those do
not stay resident while the product waits in a merge.  The SUMMA stage
loop adds its products in that order (SciPy's addition sees unsorted
operands and takes its general path, which sums the same values in the
same order) and sorts each block once, after the prune has dropped most
of it (:func:`sort_rows`: two counting-sort transposes).  Plain
``spgemm_esc`` sorts every product the same way.

The compiled code does not bounds-check: callers hand it operands that
satisfy the CSC invariants :func:`repro.sparse._compressed.validate`
enforces on every matrix built from outside input (``check=False``
callers vouch for them).  The exact symbolic count
(:mod:`repro.spgemm.symbolic`) runs ``csr_matmat_maxnnz`` and
``csr_matmat`` on the same swapped arrays, the latter over unit values.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSCMatrix
from ..sparse import _compressed as _c


def expand_compress(a: CSCMatrix, b: CSCMatrix):
    """``A·B`` for non-empty operands of matching inner dimension, in
    kernel order.

    Returns ``(C, flops per column of C)``: the product as a CSC matrix
    whose columns are duplicate-free but not necessarily sorted
    (:func:`sort_rows` sorts them), and the per-column flops the output
    was sized from.
    """
    # Imported at first use: ``import repro`` stays SciPy-free, and
    # ``repro.spgemm`` imports this module.
    from scipy.sparse import _sparsetools

    from ..spgemm.metrics import flops_per_column

    nrows, ncols = a.nrows, b.ncols
    per_col = flops_per_column(a, b)
    a_min, b_min = a.min_value(), b.min_value()
    # Positive operands whose smallest product does not underflow: every
    # product is > 0, so is every sum, and the pass drops no cell.  The
    # product of the minima alone is not the test: two negative minima
    # pass it, and their operands can still cancel or underflow.
    one_phase = a_min > 0 and b_min > 0 and a_min * b_min > 0.0
    if one_phase:
        # A column holds at most one cell per product and one per row —
        # whatever the order or multiplicity of the operands' indices.
        bound = int(np.minimum(per_col, nrows).sum())
    else:
        bound = _sparsetools.csr_matmat_maxnnz(
            ncols, nrows, b.indptr, b.indices, a.indptr, a.indices
        )
    indptr = np.empty(ncols + 1, dtype=_c.INDEX_DTYPE)
    rows = np.empty(bound, dtype=_c.INDEX_DTYPE)
    vals = np.empty(bound, dtype=_c.VALUE_DTYPE)
    _sparsetools.csr_matmat(
        ncols, nrows, b.indptr, b.indices, b.data,
        a.indptr, a.indices, a.data, indptr, rows, vals,
    )
    nnz = indptr[-1]
    if not one_phase and nnz != bound:
        c = _compress_sorted((nrows, ncols), *_expand(a, b))
        return c, per_col
    if nnz != bound:
        # Only the entries written are kept: the buffers go now.
        rows, vals = rows[:nnz].copy(), vals[:nnz].copy()
    return CSCMatrix((nrows, ncols), indptr, rows, vals, check=False), per_col


def transpose(m: CSCMatrix) -> CSCMatrix:
    """``Mᵀ`` by the compiled counting sort; canonical whenever ``m`` has
    no duplicate coordinate (its columns need not be sorted)."""
    from scipy.sparse import _sparsetools

    nrows, ncols = m.shape
    t_indptr = np.empty(nrows + 1, dtype=_c.INDEX_DTYPE)
    t_cols = np.empty(m.nnz, dtype=_c.INDEX_DTYPE)
    t_vals = np.empty(m.nnz, dtype=_c.VALUE_DTYPE)
    _sparsetools.csr_tocsc(ncols, nrows, m.indptr, m.indices, m.data,
                           t_indptr, t_cols, t_vals)
    return CSCMatrix((ncols, nrows), t_indptr, t_cols, t_vals, check=False)


def sort_rows(m: CSCMatrix) -> CSCMatrix:
    """``m`` with the rows of every column in ascending order, by two
    compiled counting-sort transposes, O(nnz + nrows + ncols); canonical
    whenever ``m`` has no duplicate coordinate."""
    return transpose(transpose(m))


def _expand(a: CSCMatrix, b: CSCMatrix):
    """Flat coordinate key ``col·nrows + row`` and numeric product per
    flop, B-entry order."""
    reps = a.column_lengths()[b.indices]
    ends = np.cumsum(reps)
    # Slot of each product's A operand: a run through A's column k per
    # stored entry b_kj.
    a_slot = np.arange(ends[-1]) + np.repeat(
        a.indptr[b.indices] - (ends - reps), reps
    )
    b_key = _c.expand_major(b.indptr, b.ncols) * np.int64(a.nrows)
    key = np.repeat(b_key, reps) + a.indices[a_slot]
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
