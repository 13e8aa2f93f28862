"""Expand–Sort–Compress (ESC) SpGEMM.

ESC (Bell, Dalton & Olson; also the backbone of ``bhsparse``-era GPU
SpGEMM) materializes every intermediate product ``a_ik · b_kj``, sorts the
triples by (column, row), and compresses runs by summation.  It is the one
classical SpGEMM formulation that maps onto pure-NumPy primitives with *no*
per-column Python loop, so this module doubles as the library's fast
numeric engine: the simulated GPU kernels and the distributed driver use it
to produce real numeric results while the machine model charges the cost of
whichever algorithm was *selected*.

The kernel (:mod:`repro.perf.esc`) compresses without sorting whenever a
dense accumulator over the output block is cheaper than sorting the
products, and by one stable key sort otherwise.  Complexity: at most
O(flops · log flops) time, O(flops) transient memory — the memory profile
that motivates HipMCL's phased execution in the first place.
"""

from __future__ import annotations

from ..errors import ShapeError
from ..perf.esc import expand_compress
from ..sparse import CSCMatrix


def spgemm_esc(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """Multiply ``C = A·B`` (both CSC) by expand–sort–compress.

    Output has sorted row indices within each column, duplicates summed,
    and no explicitly-stored zeros introduced by the expansion (exact
    cancellations are kept, matching IEEE summation of the other kernels).
    Large products fan column slabs out over the executor; the numeric
    kernel is :func:`repro.perf.esc.expand_compress`.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    shape = (a.nrows, b.ncols)
    if a.nnz == 0 or b.nnz == 0:
        return CSCMatrix.empty(shape)
    from ..parallel import get_executor

    ex = get_executor()
    if ex.workers > 1 and b.ncols >= 2 * ex.workers:
        from ..parallel.work import (
            PARALLEL_MIN_FLOPS,
            parallel_spgemm_columns,
        )

        if expansion_size(a, b) >= PARALLEL_MIN_FLOPS:
            # Output columns are independent and each sums strictly
            # within itself, so slab-wise fan-out is bit-identical
            # (inside a pool worker get_executor is serial — no
            # nested fan-out).
            return parallel_spgemm_columns(ex, "esc", a, b)
    return expand_compress(a, b)


def expansion_size(a: CSCMatrix, b: CSCMatrix) -> int:
    """Transient triple count ESC would materialize (equals ``flops``)."""
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    return int(a.column_lengths()[b.indices].sum())
