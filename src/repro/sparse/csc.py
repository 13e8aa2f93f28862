"""Compressed Sparse Column matrices.

CSC is HipMCL's working orientation: the MCL matrix is *column* stochastic,
pruning keeps the top-k entries of every *column*, and Sparse SUMMA's phased
execution splits *columns* of the second operand.  The row-wise compiled
kernels read these arrays with no conversion (paper §III-B; see
:mod:`repro.perf.esc`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import _compressed as _c


class CSCMatrix:
    """A sparse matrix stored in compressed sparse column format.

    The major axis is columns: ``indptr`` has length ``ncols + 1`` and
    ``indices`` holds row ids.

    A matrix never changes after construction: the three arrays are made
    read-only, and an array handed to the constructor that already has
    the canonical dtype and layout is kept, not copied, so it becomes
    read-only too.  Code that needs an altered matrix builds a new one
    from copies.
    """

    #: ``__weakref__`` lets a caller watch a matrix's lifetime with
    #: ``weakref`` (the tests that bound a multiply's live blocks do).
    __slots__ = (
        "shape", "indptr", "indices", "data", "_lens", "_min", "__weakref__",
    )

    def __init__(self, shape, indptr, indices, data, *, check: bool = True):
        nrows, ncols = int(shape[0]), int(shape[1])
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"negative dimensions in shape {shape}")
        _c.check_dims(nrows, ncols)
        self.shape = (nrows, ncols)
        self.indptr, self.indices, self.data = _c.normalize_arrays(
            indptr, indices, data
        )
        for array in (self.indptr, self.indices, self.data):
            array.setflags(write=False)
        self._lens = None
        self._min = None
        if check:
            _c.validate(self.indptr, self.indices, self.data, ncols, nrows)

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls, shape) -> "CSCMatrix":
        """An all-zero matrix of the given shape."""
        ncols = int(shape[1])
        _c.check_dims(ncols)  # before the ncols + 1 pointers are allocated
        return cls(
            shape,
            np.zeros(ncols + 1, dtype=_c.INDEX_DTYPE),
            np.empty(0, dtype=_c.INDEX_DTYPE),
            np.empty(0, dtype=_c.VALUE_DTYPE),
            check=False,
        )

    @classmethod
    def from_dense(cls, array) -> "CSCMatrix":
        """Build from a 2-D dense array, dropping zeros."""
        array = np.asarray(array, dtype=_c.VALUE_DTYPE)
        if array.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={array.ndim}")
        rows, cols = np.nonzero(array.T)  # rows of A.T are columns of A
        indptr = _c.compress_major(rows.astype(_c.INDEX_DTYPE), array.shape[1])
        return cls(array.shape, indptr, cols, array[cols, rows], check=False)

    @classmethod
    def from_scipy(cls, mat) -> "CSCMatrix":
        """Build from any scipy.sparse matrix (tests / ground truth).

        Works on a copy, so ``mat`` stays as it was and writable.
        """
        m = mat.tocsc(copy=True)
        m.sum_duplicates()
        return cls(m.shape, m.indptr, m.indices, m.data)

    # -- properties ---------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def column_lengths(self) -> np.ndarray:
        """Stored entries per column (length ``ncols``).

        Cached on the instance (returned read-only): the engine asks for
        the same block's lengths once per SUMMA phase and the metrics /
        kernel-count helpers ask again per stage.  The arrays it derives
        from are read-only, so the cache cannot go stale, and two threads
        that race to fill it only repeat work.
        """
        if self._lens is None:
            lens = _c.major_lengths(self.indptr)
            lens.setflags(write=False)
            self._lens = lens
        return self._lens

    def min_value(self) -> float:
        """Smallest stored value (``inf`` when nothing is stored, NaN when
        any value is NaN).

        Cached like :meth:`column_lengths`: the compiled multiply reads it
        once per product to decide whether any output cell could sum to
        exactly 0.0, and a block serves as an operand of many products.
        """
        if self._min is None:
            self._min = float(np.min(self.data, initial=np.inf))
        return self._min

    def has_sorted_indices(self) -> bool:
        """True if every column's row indices are strictly increasing."""
        return _c.has_sorted_indices(self.indptr, self.indices)

    # -- canonicalization ------------------------------------------------------

    def sorted(self) -> "CSCMatrix":
        """Copy with row indices sorted within each column."""
        indices, data = _c.sort_within_major(self.indptr, self.indices, self.data)
        return CSCMatrix(self.shape, self.indptr.copy(), indices, data, check=False)

    def sum_duplicates(self) -> "CSCMatrix":
        """Copy with duplicate coordinates summed (also sorts)."""
        indptr, indices, data = _c.sum_duplicates(
            self.indptr, self.indices, self.data, self.ncols
        )
        return CSCMatrix(self.shape, indptr, indices, data, check=False)

    def pruned_zeros(self) -> "CSCMatrix":
        """Copy with explicitly-stored zero values removed."""
        indptr, indices, data = _c.prune_explicit_zeros(
            self.indptr, self.indices, self.data, self.ncols
        )
        return CSCMatrix(self.shape, indptr, indices, data, check=False)

    # -- views & conversions -------------------------------------------------

    def column(self, j: int):
        """Return views ``(row_indices, values)`` of column ``j``."""
        if not (0 <= j < self.ncols):
            raise IndexError(f"column {j} out of range [0, {self.ncols})")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def column_slab(self, j_lo: int, j_hi: int) -> "CSCMatrix":
        """Extract columns ``[j_lo, j_hi)`` as a new matrix.

        This is the unit of work of HipMCL's phased expansion (§II): each
        phase multiplies A by one slab of B's columns.  O(slab nnz), no
        per-column loop.
        """
        if not (0 <= j_lo <= j_hi <= self.ncols):
            raise IndexError(
                f"slab [{j_lo}, {j_hi}) out of range for {self.ncols} columns"
            )
        lo, hi = self.indptr[j_lo], self.indptr[j_hi]
        indptr = self.indptr[j_lo : j_hi + 1] - self.indptr[j_lo]
        return CSCMatrix(
            (self.nrows, j_hi - j_lo),
            indptr,
            self.indices[lo:hi].copy(),
            self.data[lo:hi].copy(),
            check=False,
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array (tests / tiny matrices only)."""
        out = np.zeros(self.shape, dtype=_c.VALUE_DTYPE)
        cols = _c.expand_major(self.indptr, self.ncols)
        np.add.at(out, (self.indices, cols), self.data)
        return out

    def to_scipy(self):
        """Convert to ``scipy.sparse.csc_matrix``."""
        import scipy.sparse as sp

        return sp.csc_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    def transpose(self) -> "CSCMatrix":
        """Transpose; a counting-sort re-compression, O(nnz + nrows)."""
        indptr, indices, data = _c.swap_compression(
            self.indptr, self.indices, self.data, self.ncols, self.nrows
        )
        return CSCMatrix(
            (self.ncols, self.nrows), indptr, indices, data, check=False
        )

    def memory_bytes(self) -> int:
        """Bytes the matrix occupies in the simulator's unit: HipMCL's
        8-byte indices and values, ``8·(ncols + 1) + 16·nnz``.

        A model, not the host's arrays (whose indices are 4 bytes wide),
        so every simulated size is independent of the host dtype.
        """
        return 8 * (self.ncols + 1) + 16 * self.nnz

    def copy(self) -> "CSCMatrix":
        return CSCMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    # -- column-wise numeric helpers (MCL building blocks) ----------------------

    def column_sums(self) -> np.ndarray:
        """Sum of stored values in each column, length ``ncols``."""
        sums = np.zeros(self.ncols, dtype=_c.VALUE_DTYPE)
        lens = self.column_lengths()
        nonempty = np.flatnonzero(lens)
        if len(nonempty):
            starts = self.indptr[nonempty]
            sums[nonempty] = np.add.reduceat(self.data, starts)
        return sums

    def scale_columns(self, factors: np.ndarray) -> "CSCMatrix":
        """Multiply column ``j`` by ``factors[j]`` (returns a new matrix
        that shares this one's read-only ``indptr`` and ``indices``)."""
        factors = np.asarray(factors, dtype=_c.VALUE_DTYPE)
        if factors.shape != (self.ncols,):
            raise ShapeError(
                f"factors must have shape ({self.ncols},), got {factors.shape}"
            )
        per_entry = np.repeat(factors, self.column_lengths())
        return CSCMatrix(
            self.shape, self.indptr, self.indices, self.data * per_entry,
            check=False,
        )

    # -- comparison ---------------------------------------------------------------

    def same_pattern_and_values(self, other: "CSCMatrix", tol: float = 0.0) -> bool:
        """Structural and (toleranced) numeric equality after canonicalization."""
        if self.shape != other.shape:
            return False
        a = self.sum_duplicates().pruned_zeros().sorted()
        b = other.sum_duplicates().pruned_zeros().sorted()
        if a.nnz != b.nnz:
            return False
        if not (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
        ):
            return False
        if tol == 0.0:
            return bool(np.array_equal(a.data, b.data))
        return bool(np.allclose(a.data, b.data, rtol=tol, atol=tol))

    def __repr__(self) -> str:
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"bytes={self.memory_bytes()})"
        )
