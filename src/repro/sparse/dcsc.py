"""Doubly Compressed Sparse Column matrices (Buluç & Gilbert, IPDPS'08).

DCSC is CombBLAS' (and therefore HipMCL's) storage format.  In a 2-D
√P × √P decomposition each local block holds roughly ``nnz/P`` nonzeros
spread over ``n/√P`` columns, so most columns are *empty*: CSC's
``O(ncols)`` column-pointer array dominates memory ("hypersparsity").
DCSC stores pointers only for the non-empty columns:

``jc``  — ids of non-empty columns, strictly increasing, length ``nzc``;
``cp``  — pointer array of length ``nzc + 1`` into ``ir``/``num``;
``ir``  — row indices, ``num`` — values (both length ``nnz``).

The paper (§III-B) notes that converting DCSC to CSC — required before
handing blocks to the CSR-oriented GPU libraries — is a cheap pointer
*decompression* that leaves ``ir``/``num`` untouched; :meth:`to_csc`
implements exactly that.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError, ShapeError
from . import _compressed as _c
from .csc import CSCMatrix


class DCSCMatrix:
    """A hypersparse matrix in doubly compressed sparse column format."""

    __slots__ = ("shape", "jc", "cp", "ir", "num")

    def __init__(self, shape, jc, cp, ir, num, *, check: bool = True):
        nrows, ncols = int(shape[0]), int(shape[1])
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"negative dimensions in shape {shape}")
        self.shape = (nrows, ncols)
        self.jc = np.ascontiguousarray(jc, dtype=_c.INDEX_DTYPE)
        self.cp = np.ascontiguousarray(cp, dtype=_c.INDEX_DTYPE)
        self.ir = np.ascontiguousarray(ir, dtype=_c.INDEX_DTYPE)
        self.num = np.ascontiguousarray(num, dtype=_c.VALUE_DTYPE)
        if check:
            self._validate()

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if len(self.cp) != len(self.jc) + 1:
            raise FormatError(
                f"cp has length {len(self.cp)}, expected nzc+1={len(self.jc) + 1}"
            )
        if len(self.ir) != len(self.num):
            raise FormatError(
                f"ir ({len(self.ir)}) and num ({len(self.num)}) lengths differ"
            )
        if len(self.jc):
            if np.any(np.diff(self.jc) <= 0):
                raise FormatError("jc must be strictly increasing")
            if self.jc[0] < 0 or self.jc[-1] >= ncols:
                raise FormatError(
                    f"jc out of range [0, {ncols}): "
                    f"min={self.jc[0]}, max={self.jc[-1]}"
                )
        if self.cp[0] != 0 or self.cp[-1] != len(self.ir):
            raise FormatError("cp must start at 0 and end at nnz")
        if np.any(np.diff(self.cp) <= 0):
            # A listed column with zero entries defeats the format's purpose.
            raise FormatError("every column listed in jc must be non-empty")
        if len(self.ir) and (self.ir.min() < 0 or self.ir.max() >= nrows):
            raise FormatError(
                f"row indices out of range [0, {nrows}): "
                f"min={self.ir.min()}, max={self.ir.max()}"
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_csc(cls, mat: CSCMatrix) -> "DCSCMatrix":
        """Compress a CSC matrix's column pointers (drops empty columns).

        Shares ``ir``/``num`` with the source *by reference* — the
        zero-copy mirror of :meth:`to_csc`; a ``CSCMatrix``'s arrays are
        read-only, so the two can never disagree.
        """
        lens = mat.column_lengths()
        jc = np.flatnonzero(lens).astype(_c.INDEX_DTYPE)
        cp = np.concatenate(([0], np.cumsum(lens[jc], dtype=_c.INDEX_DTYPE)))
        return cls(mat.shape, jc, cp, mat.indices, mat.data, check=False)

    # -- properties -------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.num)

    @property
    def nzc(self) -> int:
        """Number of non-empty columns."""
        return len(self.jc)

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def memory_bytes(self) -> int:
        """Bytes of the four backing arrays; for a hypersparse block this is
        ``O(nnz + nzc)`` versus CSC's ``O(nnz + ncols)``."""
        return self.jc.nbytes + self.cp.nbytes + self.ir.nbytes + self.num.nbytes

    # -- conversion ----------------------------------------------------------------

    def to_csc(self) -> CSCMatrix:
        """Decompress the column pointers into a full CSC indptr.

        ``ir`` and ``num`` are reused *by reference* — this mirrors the
        paper's observation that DCSC→CSC needs no touching of the O(nnz)
        arrays, only a new O(ncols) pointer array.
        """
        indptr = np.zeros(self.ncols + 1, dtype=_c.INDEX_DTYPE)
        if self.nzc:
            indptr[self.jc + 1] = np.diff(self.cp)
            np.cumsum(indptr, out=indptr)
        return CSCMatrix(self.shape, indptr, self.ir, self.num, check=False)

    def to_dense(self) -> np.ndarray:
        """Materialize densely (tests only)."""
        return self.to_csc().to_dense()

    def __repr__(self) -> str:
        return (
            f"DCSCMatrix(shape={self.shape}, nnz={self.nnz}, nzc={self.nzc}, "
            f"bytes={self.memory_bytes()})"
        )
