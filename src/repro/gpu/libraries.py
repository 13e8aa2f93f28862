"""Algorithmic re-implementations of the three GPU SpGEMM libraries.

The paper plugs ``bhsparse`` (Liu & Vinter), ``nsparse`` (Nagasaka et al.)
and ``rmerge2`` (Gremse et al.) behind a common CombBLAS interface.  We
cannot run CUDA, so each library is re-implemented here *with its own
algorithmic core* — what differs between them on real GPUs (and what the
hybrid selector exploits) is the accumulator strategy:

* ``bhsparse`` — ESC-family: expand all intermediate products, sort,
  compress (merge-path in the original; a global lexsort here);
* ``nsparse``  — two-phase hash: a symbolic pass sizes each output column
  exactly, then the numeric pass fills pre-sized tables (memory-saving —
  never materializes the flops-sized expansion);
* ``rmerge2``  — iterative row merging: the selected scaled columns are
  pairwise two-way merged in ⌈log₂ k⌉ rounds until one list per output
  column remains.

All three take CSC operands (HipMCL hands them CSC blocks via the
transpose-reinterpretation of §III-B) and produce bit-identical results
to the CPU kernels up to floating-point summation order.  Their *device
time* comes from :meth:`MachineSpec.gpu_spgemm_time`, whose cf-dependent
rates encode the measured orderings of Fig. 4.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..sparse import CSCMatrix
from ..sparse import _compressed as _c
from ..spgemm.esc import spgemm_esc
from ..spgemm.metrics import flops_per_column
from ..spgemm.symbolic import symbolic_nnz_per_column


def spgemm_bhsparse(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """bhsparse: expand–sort–compress with a global merge.

    The original bins output rows by upper-bounded nnz and runs a
    merge-path per bin; the net effect is a full sorted compression of the
    expanded products, which :func:`~repro.spgemm.esc.spgemm_esc` performs
    directly.
    """
    return spgemm_esc(a, b)


def spgemm_nsparse(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """nsparse: symbolic sizing pass, then numeric accumulation.

    Phase 1 computes the exact per-column output nnz (hash-table counting
    in the original); phase 2 allocates the output exactly and accumulates
    products column-group by column-group so the flops-sized expansion is
    never held at once — nsparse's "memory-saving" property.
    """
    counts = symbolic_nnz_per_column(a, b)  # phase 1: exact sizing
    shape = (a.nrows, b.ncols)
    total = int(counts.sum())
    if total == 0:
        return CSCMatrix.empty(shape)
    out_indptr = np.concatenate(
        ([0], np.cumsum(counts, dtype=_c.INDEX_DTYPE))
    )
    out_rows = np.empty(total, dtype=_c.INDEX_DTYPE)
    out_vals = np.empty(total, dtype=_c.VALUE_DTYPE)
    # Phase 2: process output columns in groups whose expansion stays
    # bounded, mimicking the per-threadblock tables of the original.
    flops_per_col = flops_per_column(a, b)
    budget = max(1 << 16, int(flops_per_col.max(initial=1)))
    j = 0
    while j < b.ncols:
        j_end = j
        acc = 0
        while j_end < b.ncols and (acc == 0 or acc + flops_per_col[j_end] <= budget):
            acc += flops_per_col[j_end]
            j_end += 1
        block = spgemm_esc(a, b.column_slab(j, j_end))
        lo, hi = out_indptr[j], out_indptr[j_end]
        if hi - lo != block.nnz:
            raise AssertionError(
                "nsparse symbolic/numeric disagreement: "
                f"sized {hi - lo}, produced {block.nnz}"
            )
        out_rows[lo:hi] = block.indices
        out_vals[lo:hi] = block.data
        j = j_end
    return CSCMatrix(shape, out_indptr, out_rows, out_vals, check=False)


def spgemm_rmerge2(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """rmerge2: iterative pairwise merging of scaled columns.

    Round 0 materializes one scaled copy of ``A_{*k}`` per nonzero
    ``b_kj`` with a *slot* number; each round halves the slot by merging
    slot pairs (a vectorized two-way merge across the whole matrix), until
    every output column holds a single list.  ⌈log₂ k_max⌉ rounds, the
    schedule signature of row-merge SpGEMM.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    shape = (a.nrows, b.ncols)
    if a.nnz == 0 or b.nnz == 0:
        return CSCMatrix.empty(shape)
    a_col_lens = a.column_lengths()
    reps = a_col_lens[b.indices]
    total = int(reps.sum())
    if total == 0:
        return CSCMatrix.empty(shape)

    # Slot of each B-nonzero within its column (0..k_j-1).
    cols_b = _c.expand_major(b.indptr, b.ncols)
    slot_of_entry = np.arange(b.nnz, dtype=np.int64) - b.indptr[cols_b]

    starts = a.indptr[b.indices]
    ends = np.cumsum(reps)
    flat = np.arange(total, dtype=np.int64)
    a_slot = flat - np.repeat(ends - reps, reps) + np.repeat(starts, reps)

    rows = a.indices[a_slot]
    vals = a.data[a_slot] * np.repeat(b.data, reps)
    cols = np.repeat(cols_b, reps)
    slots = np.repeat(slot_of_entry, reps)

    max_k = int(b.column_lengths().max(initial=1))
    while max_k > 1:
        # Merge slot 2t and 2t+1 → slot t: a two-way merge is a sort of
        # the pair's union plus duplicate compression.
        slots //= 2
        order = np.lexsort((rows, slots, cols))
        cols, rows, vals, slots = (
            cols[order],
            rows[order],
            vals[order],
            slots[order],
        )
        n = len(vals)
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = (
            (cols[1:] != cols[:-1])
            | (slots[1:] != slots[:-1])
            | (rows[1:] != rows[:-1])
        )
        group = np.flatnonzero(boundary)
        cols, rows, slots = cols[group], rows[group], slots[group]
        vals = np.add.reduceat(vals, group)
        max_k = (max_k + 1) // 2

    indptr = _c.compress_major(cols, b.ncols)
    return CSCMatrix(shape, indptr, rows, vals, check=False)


LIBRARY_FUNCTIONS = {
    "bhsparse": spgemm_bhsparse,
    "nsparse": spgemm_nsparse,
    "rmerge2": spgemm_rmerge2,
}
