"""Sorted triple lists — the currency of SUMMA's merge phase.

Each Sparse SUMMA stage k produces an intermediate product ``A_ik·B_kj``
for the local output block; the summation ``C_ij = Σ_k A_ik·B_kj`` is a
*merge* of k sorted lists of (col, row, value) triples, summing values on
coordinate collisions.  :class:`TripleList` is that list: arrays sorted by
(col, row), with an explicit element count so the merge-memory accounting
of Table III is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..perf.merge import merge_triples
from ..sparse import CSCMatrix
from ..sparse import _compressed as _c

#: Bytes one stored triple occupies in HipMCL's tuple representation
#: (int64 row, int64 col, float64 value) — the unit Table III reports in.
BYTES_PER_TRIPLE = 24


@dataclass
class TripleList:
    """Sorted (col-major) coordinate triples of one output block."""

    shape: tuple[int, int]
    cols: np.ndarray
    rows: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if not (len(self.cols) == len(self.rows) == len(self.vals)):
            raise ShapeError(
                f"triple arrays must have equal length: "
                f"{len(self.cols)}/{len(self.rows)}/{len(self.vals)}"
            )
        self.cols = np.ascontiguousarray(self.cols, dtype=_c.INDEX_DTYPE)
        self.rows = np.ascontiguousarray(self.rows, dtype=_c.INDEX_DTYPE)
        self.vals = np.ascontiguousarray(self.vals, dtype=_c.VALUE_DTYPE)
        self._memo = None  # per-instance cache slot (repro.perf.cache.memo)

    def __len__(self) -> int:
        return len(self.vals)

    @property
    def nbytes(self) -> int:
        return len(self) * BYTES_PER_TRIPLE

    @classmethod
    def from_csc(cls, mat: CSCMatrix, copy: bool = True) -> "TripleList":
        """Flatten a CSC block into its sorted triple list.

        ``copy=False`` shares the CSC's index/data arrays instead of
        copying them — safe whenever neither side mutates (both types
        treat their arrays as frozen after construction), and it drops
        two O(nnz) copies per SUMMA stage.
        """
        cols = _c.expand_major(mat.indptr, mat.ncols)
        if copy:
            return cls(mat.shape, cols, mat.indices.copy(), mat.data.copy())
        return cls(mat.shape, cols, mat.indices, mat.data)

    @classmethod
    def empty(cls, shape) -> "TripleList":
        return cls(
            shape,
            np.empty(0, dtype=_c.INDEX_DTYPE),
            np.empty(0, dtype=_c.INDEX_DTYPE),
            np.empty(0, dtype=_c.VALUE_DTYPE),
        )

    def to_csc(self) -> CSCMatrix:
        """Re-compress to CSC (assumes the list is sorted and compressed)."""
        indptr = _c.compress_major(self.cols, self.shape[1])
        return CSCMatrix(self.shape, indptr, self.rows, self.vals, check=False)

    def is_sorted(self) -> bool:
        """True when ordered by (col, row) with no duplicate coordinates."""
        if len(self) <= 1:
            return True
        key = self.cols * np.int64(self.shape[0]) + self.rows
        return bool(np.all(np.diff(key) > 0))


def merge_lists(lists: list[TripleList], copy: bool = True) -> TripleList:
    """Merge sorted triple lists into one, summing duplicate coordinates.

    This is the *numeric engine* every merge schedule (two-way, multiway,
    binary) calls; the schedules differ in *when* they call it and on how
    many lists, which is what the operation/memory accounting captures.
    Colliding coordinates are summed in concatenation (list) order — see
    :func:`repro.perf.merge.merge_triples` — and exact zeros produced by
    cancellation are kept.

    ``copy=False`` lets the single-list short-circuit return a view-backed
    list sharing the input's arrays (the k >= 2 paths always build fresh
    arrays); use it when the caller treats the inputs as frozen.
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
        t = lists[0]
        if copy:
            return TripleList(shape, t.cols.copy(), t.rows.copy(), t.vals.copy())
        return TripleList(shape, t.cols, t.rows, t.vals)
    return TripleList(shape, *merge_triples(lists, shape))
