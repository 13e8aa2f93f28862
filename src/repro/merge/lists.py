"""Triple lists — the currency of SUMMA's merge phase.

Each Sparse SUMMA stage k produces an intermediate product ``A_ik·B_kj``
for the local output block; the summation ``C_ij = Σ_k A_ik·B_kj`` is a
*merge* of k lists of (col, row, value) triples, summing values on
coordinate collisions.  :class:`TripleList` is that list, with an explicit
element count so the merge-memory accounting of Table III is exact.

A list grouped by column, duplicate-free per column, *is* a CSC block
(its rows need not be sorted), so the class is a thin view of the
``(indptr, rows, vals)`` triplet the local multiply produced: a stage
product enters the merge schedule in the order the kernel wrote it, is
summed (:func:`repro.perf.merge.merge_triples`) and leaves as the output
block without ever being expanded to coordinates or sorted.  ``cols`` is
materialized only for callers that ask for it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..perf.merge import merge_triples
from ..sparse import CSCMatrix
from ..sparse import _compressed as _c

#: Bytes one stored triple occupies in HipMCL's tuple representation
#: (int64 row, int64 col, float64 value) — the unit Table III reports in.
BYTES_PER_TRIPLE = 24


class TripleList:
    """Coordinate triples of one output block, grouped by column and
    duplicate-free per column.

    Built either from explicit coordinates (``TripleList(shape, cols, rows,
    vals)``) or, without any O(nnz) work, around a CSC triplet
    (:meth:`from_csc`); whichever of ``cols`` / ``indptr`` it was not given
    is derived on first use.
    """

    def __init__(self, shape, cols, rows, vals):
        if not (len(cols) == len(rows) == len(vals)):
            raise ShapeError(
                f"triple arrays must have equal length: "
                f"{len(cols)}/{len(rows)}/{len(vals)}"
            )
        self.shape = shape
        self._cols = _c.as_index(cols)
        self._indptr = None
        self.rows = _c.as_index(rows)
        self.vals = np.ascontiguousarray(vals, dtype=_c.VALUE_DTYPE)

    @classmethod
    def _of_compressed(cls, shape, indptr, rows, vals) -> "TripleList":
        """Wrap canonical-dtype CSC arrays as they are."""
        self = object.__new__(cls)
        self.shape = shape
        self._cols = None
        self._indptr = indptr
        self.rows = rows
        self.vals = vals
        return self

    def __repr__(self) -> str:
        return f"TripleList(shape={self.shape}, nnz={len(self)})"

    def __len__(self) -> int:
        return len(self.vals)

    @property
    def cols(self) -> np.ndarray:
        """Column index per triple (expanded from ``indptr`` when needed)."""
        if self._cols is None:
            self._cols = _c.expand_major(self._indptr, self.shape[1])
        return self._cols

    @property
    def indptr(self) -> np.ndarray:
        """CSC column pointers (assumes the triples are grouped by column)."""
        if self._indptr is None:
            self._indptr = _c.compress_major(self._cols, self.shape[1])
        return self._indptr

    @property
    def nbytes(self) -> int:
        return len(self) * BYTES_PER_TRIPLE

    @classmethod
    def from_csc(cls, mat: CSCMatrix, copy: bool = True) -> "TripleList":
        """View a CSC block as its triple list.

        ``copy=False`` shares the CSC's arrays instead of copying them —
        safe whenever neither side mutates (both types treat their arrays
        as frozen after construction) — and is O(1).
        """
        if copy:
            return cls._of_compressed(
                mat.shape, mat.indptr.copy(), mat.indices.copy(),
                mat.data.copy(),
            )
        return cls._of_compressed(mat.shape, mat.indptr, mat.indices, mat.data)

    @classmethod
    def empty(cls, shape) -> "TripleList":
        return cls.from_csc(CSCMatrix.empty(shape), copy=False)

    def to_csc(self) -> CSCMatrix:
        """The list as a CSC block sharing its arrays (assumes the triples
        are grouped by column)."""
        return CSCMatrix(
            self.shape, self.indptr, self.rows, self.vals, check=False
        )

    def is_sorted(self) -> bool:
        """True when ordered by (col, row) with no duplicate coordinates."""
        if len(self) <= 1:
            return True
        key = self.cols * np.int64(self.shape[0]) + self.rows
        return bool(np.all(np.diff(key) > 0))


def merge_lists(lists: list[TripleList], copy: bool = True) -> TripleList:
    """Merge triple lists into one, summing duplicate coordinates.

    This is the *numeric engine* every merge schedule (two-way, multiway,
    binary) calls; the schedules differ in *when* they call it and on how
    many lists, which is what the operation/memory accounting captures.
    Colliding coordinates are summed left to right in list order — see
    :func:`repro.perf.merge.merge_triples` — and exact zeros produced by
    cancellation are kept.  Every list must be duplicate-free per column
    (its rows in any order), which every producer in the library
    guarantees; the result is too, and is sorted when every input is.

    ``copy=False`` lets the single-list short-circuit return that list
    itself (the k >= 2 paths always build fresh arrays); use it when the
    caller treats the inputs as frozen.
    """
    if not lists:
        raise ValueError("merge_lists needs at least one (possibly empty) list")
    shape = lists[0].shape
    lists = [t for t in lists if len(t)]
    if not lists:
        return TripleList.empty(shape)
    for t in lists:
        if t.shape != shape:
            raise ShapeError(f"block shape mismatch: {t.shape} vs {shape}")
    if len(lists) == 1:
        only = lists[0]
        return TripleList.from_csc(only.to_csc()) if copy else only
    return TripleList._of_compressed(shape, *merge_triples(lists, shape))
