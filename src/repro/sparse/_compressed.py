"""Shared routines for compressed sparse axis representations.

:class:`~repro.sparse.csc.CSCMatrix` stores the triplet
``(indptr, indices, data)``; the routines here are written against the
compressed ("major") axis.

All index arrays are ``int64`` and all value arrays ``float64``; normalizing
dtypes at the boundary keeps every downstream kernel branch-free.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


def normalize_arrays(indptr, indices, data):
    """Cast the triplet to canonical dtypes, copying only when needed."""
    indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
    indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
    data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
    return indptr, indices, data


def validate(indptr, indices, data, n_major: int, n_minor: int) -> None:
    """Check the structural invariants of a compressed representation.

    Raises :class:`FormatError` on: wrong indptr length, non-monotone
    indptr, indptr/indices length mismatch, or out-of-range minor indices.
    Sortedness within a major slice is *not* required here (kernels that
    need it call :func:`sort_within_major`), matching the looseness of CSR
    in scipy.
    """
    if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
        raise FormatError("indptr, indices and data must be 1-D arrays")
    if len(indptr) != n_major + 1:
        raise FormatError(
            f"indptr has length {len(indptr)}, expected n_major+1={n_major + 1}"
        )
    if len(indices) != len(data):
        raise FormatError(
            f"indices ({len(indices)}) and data ({len(data)}) lengths differ"
        )
    if n_major > 0:
        if indptr[0] != 0:
            raise FormatError(f"indptr[0] must be 0, got {indptr[0]}")
        if np.any(np.diff(indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if indptr[-1] != len(indices):
            raise FormatError(
                f"indptr[-1]={indptr[-1]} does not match nnz={len(indices)}"
            )
    elif len(indices) != 0:
        raise FormatError("matrix with zero major dimension cannot have nonzeros")
    if len(indices) and (indices.min() < 0 or indices.max() >= n_minor):
        raise FormatError(
            f"minor indices out of range [0, {n_minor}): "
            f"min={indices.min()}, max={indices.max()}"
        )


def sort_within_major(indptr, indices, data):
    """Return (indices, data) with each major slice sorted by minor index.

    Vectorized: builds one global lexsort key ``major * n_minor + minor``
    instead of looping over slices — per the vectorize-don't-loop idiom.
    """
    nnz = len(indices)
    if nnz == 0:
        return indices.copy(), data.copy()
    major = np.repeat(np.arange(len(indptr) - 1, dtype=INDEX_DTYPE), np.diff(indptr))
    order = np.lexsort((indices, major))
    return indices[order], data[order]


def _minor_steps(indptr, indices) -> np.ndarray:
    """``np.diff(indices)`` with the steps that cross into a new major
    slice (where the difference may legally drop) set to 1."""
    steps = np.diff(indices)
    starts = indptr[1:-1]
    steps[starts[(starts > 0) & (starts < len(indices))] - 1] = 1
    return steps


def has_sorted_indices(indptr, indices) -> bool:
    """True if each major slice's minor indices are strictly increasing."""
    if len(indices) <= 1:
        return True
    return bool(np.all(_minor_steps(indptr, indices) > 0))


def sum_duplicates(indptr, indices, data, n_major: int):
    """Collapse duplicate (major, minor) entries by summation.

    Returns a new sorted triplet (never sharing an array with the input).
    One pass over the minor indices decides how much work that takes:
    strictly rising within every slice is already canonical; merely
    non-decreasing needs no sort (a stable sort of sorted input is the
    identity, so duplicates keep their order and the sums their bits);
    anything else is one lexsort.  Groups are summed by ``reduceat`` over
    their boundaries — no Python-level loop.
    """
    nnz = len(indices)
    if nnz == 0:
        return indptr.copy(), indices.copy(), data.copy()
    lowest_step = _minor_steps(indptr, indices).min(initial=1)
    if lowest_step > 0:
        return indptr.copy(), indices.copy(), data.copy()
    major = np.repeat(np.arange(n_major, dtype=INDEX_DTYPE), np.diff(indptr))
    minor, vals = indices, data
    if lowest_step < 0:
        order = np.lexsort((indices, major))
        major, minor, vals = major[order], indices[order], data[order]
    new_group = np.empty(nnz, dtype=bool)
    new_group[0] = True
    np.not_equal(major[1:], major[:-1], out=new_group[1:])
    same_minor = minor[1:] == minor[:-1]
    new_group[1:] |= ~same_minor
    starts = np.flatnonzero(new_group)
    out_major = major[starts]
    out_minor = minor[starts]
    out_vals = np.add.reduceat(vals, starts)
    return compress_major(out_major, n_major), out_minor, out_vals


def prune_explicit_zeros(indptr, indices, data, n_major: int):
    """Drop entries whose stored value is exactly zero."""
    keep = data != 0.0
    if keep.all():
        return indptr.copy(), indices.copy(), data.copy()
    major = np.repeat(np.arange(n_major, dtype=INDEX_DTYPE), np.diff(indptr))
    return compress_major(major[keep], n_major), indices[keep], data[keep]


def groupsum_ordered(vals: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Sum runs of ``vals`` delimited by ``boundary`` (True starts a group).

    Accumulates strictly left-to-right within each group — the library's
    canonical summation order for duplicate coordinates.  ``np.add.reduceat``
    is *not* used because it sums pairwise on long runs; ``np.bincount``
    matches the naive sequential loop bit-for-bit, which is what lets the
    dense-scatter kernels in :mod:`repro.perf` reproduce these sums
    exactly.
    """
    if len(vals) == 0:
        return vals.copy()
    gid = np.cumsum(boundary)
    gid -= 1
    return np.bincount(gid, weights=vals, minlength=int(gid[-1]) + 1)


def major_lengths(indptr) -> np.ndarray:
    """Number of stored entries in each major slice."""
    return np.diff(indptr)


def expand_major(indptr, n_major: int) -> np.ndarray:
    """Expand ``indptr`` to one major index per stored entry (COO major)."""
    return np.repeat(np.arange(n_major, dtype=INDEX_DTYPE), np.diff(indptr))


def compress_major(major: np.ndarray, n_major: int) -> np.ndarray:
    """Build an indptr by counting the entries of each major index.

    The count does not depend on the order of ``major``; the entries it
    describes must of course be stored grouped by major index.
    """
    indptr = np.zeros(n_major + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(major, minlength=n_major), out=indptr[1:])
    return indptr


def swap_compression(indptr, indices, data, n_major: int, n_minor: int):
    """Re-compress along the other axis (CSR<->CSC kernel).

    A counting sort over minor indices: O(nnz + n_minor), fully vectorized.
    Output slices come out sorted by the old major index.
    """
    new_indptr = compress_major(indices, n_minor)
    if len(indices) == 0:
        return new_indptr, indices[:0].copy(), data[:0].copy()
    major = expand_major(indptr, n_major)
    order = np.argsort(indices, kind="stable")
    return new_indptr, major[order], data[order]
