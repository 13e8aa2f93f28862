"""Symbolic SpGEMM: exact output structure without numeric values.

Original HipMCL runs the whole distributed multiplication twice — once
symbolically to size buffers and pick the phase count, once numerically
(§I, §V).  The symbolic pass never materializes C's values but still costs
O(flops), which the paper replaces with the probabilistic estimator of
:mod:`repro.spgemm.estimator`.  This module provides the exact pass, both
as the correctness reference for the estimator and as the "exact" branch
the optimized HipMCL falls back to when cf is small (§VII-D).

Both counts are one compiled SciPy call on the operands' own CSC arrays,
roles of A and B swapped — §III-B's identity, ``Cᵀ = Bᵀ·Aᵀ`` in CSR, as
the local multiply (:mod:`repro.perf.esc`) uses it: ``csr_matmat_maxnnz``
is the structural count of the two-phase hash SpGEMM's symbolic phase
(Nagasaka et al., arXiv:1804.01698), an O(nrows) row mask and O(flops)
time.  The per-column form runs ``csr_matmat`` over unit values: a sum of
1.0s never cancels and a stored zero becomes a 1.0, so the cells it keeps
are the structure.

The compiled code does not bounds-check: callers hand it matrices that
satisfy the CSC invariants :func:`repro.sparse._compressed.validate`
enforces on every matrix built from outside input.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..sparse import CSCMatrix
from ..sparse import _compressed as _c
from .metrics import flops, flops_per_column


def symbolic_nnz_per_column(a: CSCMatrix, b: CSCMatrix) -> np.ndarray:
    """Exact ``nnz`` of every column of ``A·B`` (no values computed).

    Structure only: explicitly stored zeros count and exact numeric
    cancellation does not remove an entry.
    """
    from scipy.sparse import _sparsetools

    nrows, ncols = a.nrows, b.ncols
    # ``flops_per_column`` checks the inner dimension.  A column holds at
    # most one cell per product and one per row.
    bound = int(np.minimum(flops_per_column(a, b), nrows).sum())
    indptr = np.empty(ncols + 1, dtype=_c.INDEX_DTYPE)
    _sparsetools.csr_matmat(
        ncols, nrows, b.indptr, b.indices, np.ones(b.nnz),
        a.indptr, a.indices, np.ones(a.nnz), indptr,
        np.empty(bound, dtype=_c.INDEX_DTYPE), np.empty(bound),
    )
    return np.diff(indptr)


def symbolic_nnz(a: CSCMatrix, b: CSCMatrix) -> int:
    """Exact total ``nnz(A·B)``, structure only like
    :func:`symbolic_nnz_per_column`."""
    from scipy.sparse import _sparsetools

    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    return int(_sparsetools.csr_matmat_maxnnz(
        b.ncols, a.nrows, b.indptr, b.indices, a.indptr, a.indices
    ))


def symbolic_operation_count(a: CSCMatrix, b: CSCMatrix) -> float:
    """Modeled cost of the symbolic pass: O(flops).

    The paper's comparison (Fig. 6 bottom): exact estimation costs
    ``cf · nnz(C) = flops`` while the probabilistic scheme costs
    ``r · (nnz A + nnz B)`` — the crossover in later MCL iterations falls
    out of these two counts.
    """
    return float(flops(a, b))
