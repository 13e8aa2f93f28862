"""``spgemm_esc``: the library's numeric engine for ``C = A·B``.

The module keeps the name of the formulation it started from.  ESC (Bell,
Dalton & Olson; also the backbone of ``bhsparse``-era GPU SpGEMM)
materializes every intermediate product ``a_ik · b_kj``, sorts the triples
by (column, row), and compresses runs by summation.  The main path here is
instead one compiled column-by-column Gustavson pass — the formulation of
the paper's own CPU kernels — run in the paper's §III-B form: a CSC matrix
is its transpose in CSR (:mod:`repro.sparse.convert`), so SciPy's row-wise
CSR product computes ``Cᵀ = Bᵀ·Aᵀ`` on the operands' own arrays with no
conversion (:mod:`repro.perf.esc`).  On positive operands the output is
sized from the per-column flops and the pass runs once; otherwise a
structural pass sizes it exactly, and expand – stable sort – compress
remains as the path for products in which an output cell sums to exactly
0.0, which the compiled pass would drop.

The simulated GPU kernels and the distributed driver use this module to
produce real numeric results while the machine model charges the cost of
whichever algorithm was *selected*.  Complexity: O(flops + nrows) time and
O(Σ_j min(flops_j, nrows)) transient memory, of which only nnz(C) is
touched; O(flops · log flops) time and O(flops) transient memory on the
zero-sum path.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..perf.esc import expand_compress, transpose
from ..sparse import CSCMatrix
from .metrics import flops

#: Transient triple count an expand–sort–compress materializes: ``flops``.
expansion_size = flops


def spgemm_esc(a: CSCMatrix, b: CSCMatrix, transposed: bool = False):
    """Multiply ``C = A·B`` (both CSC).

    Output has sorted row indices within each column, duplicates summed,
    and one stored entry per structural nonzero (exact cancellations are
    kept as explicit zeros, matching the heap and hash kernels).
    A pure function of its operands: the numeric kernel is
    :func:`repro.perf.esc.expand_compress`, run inline.

    ``transposed=True`` returns the kernel's row-major form instead —
    ``(Cᵀ, indptr of C, flops per column of C)``, Cᵀ canonical CSC of
    shape ``(b.ncols, a.nrows)`` — which saves the transpose back and is
    what the SUMMA stage loop merges.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    shape = (a.nrows, b.ncols)
    if a.nnz == 0 or b.nnz == 0:
        if transposed:
            return (
                CSCMatrix.empty(shape[::-1]),
                np.zeros(b.ncols + 1, dtype=np.int64),
                np.zeros(b.ncols, dtype=np.int64),
            )
        return CSCMatrix.empty(shape)
    if transposed:
        return expand_compress(a, b)
    # The kernel's oversized output buffers are gone by the time the
    # transpose back allocates.
    return transpose(expand_compress(a, b)[0])
