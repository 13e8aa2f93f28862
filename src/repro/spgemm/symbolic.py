"""Symbolic SpGEMM: exact output structure without numeric values.

Original HipMCL runs the whole distributed multiplication twice — once
symbolically to size buffers and pick the phase count, once numerically
(§I, §V).  The symbolic pass never materializes C's values but still costs
O(flops), which the paper replaces with the probabilistic estimator of
:mod:`repro.spgemm.estimator`.  This module provides the exact pass, both
as the correctness reference for the estimator and as the "exact" branch
the optimized HipMCL falls back to when cf is small (§VII-D).

The count is one compiled SciPy call on the operands' own CSC arrays,
roles of A and B swapped — §III-B's identity, ``Cᵀ = Bᵀ·Aᵀ`` in CSR, as
the local multiply (:mod:`repro.perf.esc`) uses it: ``csr_matmat_maxnnz``
is the structural count of the two-phase hash SpGEMM's symbolic phase
(Nagasaka et al., arXiv:1804.01698), an O(nrows) row mask and O(flops)
time.

The compiled code does not bounds-check: callers hand it matrices that
satisfy the CSC invariants :func:`repro.sparse._compressed.validate`
enforces on every matrix built from outside input.
"""

from __future__ import annotations

from ..errors import ShapeError
from ..sparse import CSCMatrix


def symbolic_nnz(a: CSCMatrix, b: CSCMatrix) -> int:
    """Exact total ``nnz(A·B)`` (no values computed).

    Structure only: explicitly stored zeros count and exact numeric
    cancellation does not remove an entry.
    """
    from scipy.sparse import _sparsetools

    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    return int(_sparsetools.csr_matmat_maxnnz(
        b.ncols, a.nrows, b.indptr, b.indices, a.indptr, a.indices
    ))
