"""Assertion helpers shared by the tests."""

from __future__ import annotations

import numpy as np


def dense_of(mat) -> np.ndarray:
    """Dense array of any repro sparse matrix."""
    return mat.to_dense()


def assert_matrix_equals_dense(mat, expected, tol=1e-12):
    """Sparse ``mat`` equals dense ``expected`` entrywise."""
    got = mat.to_dense()
    assert got.shape == expected.shape, f"{got.shape} != {expected.shape}"
    if not np.allclose(got, expected, rtol=tol, atol=tol):
        bad = np.argwhere(~np.isclose(got, expected, rtol=tol, atol=tol))
        raise AssertionError(
            f"matrices differ at {len(bad)} positions, first {bad[:5]}"
        )


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Float arrays equal down to the bit pattern (NaN-safe, ±0-strict)."""
    return len(a) == len(b) and bool(
        np.array_equal(
            np.ascontiguousarray(a).view(np.uint64),
            np.ascontiguousarray(b).view(np.uint64),
        )
    )


def assert_same_csc(got, want):
    """Two CSC matrices with identical structure and bit-identical values."""
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert bits_equal(got.data, want.data)


def symbolic_counts_numpy(a, b) -> np.ndarray:
    """Per-column ``nnz(A·B)`` by NumPy expansion: the flat coordinate
    ``col·nrows + row`` of every product, deduplicated, counted per column.
    Structure only (values are never read) and O(flops) memory — an
    oracle for the compiled symbolic pass, for small inputs."""
    reps = np.diff(a.indptr)[b.indices]
    ends = np.cumsum(reps, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    a_slot = np.arange(total) + np.repeat(
        a.indptr[b.indices] - (ends - reps), reps
    )
    cols = np.repeat(np.arange(b.ncols), np.diff(b.indptr))
    key = np.unique(np.repeat(cols, reps) * a.nrows + a.indices[a_slot])
    return np.bincount(key // max(a.nrows, 1), minlength=b.ncols)


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index between two labelings (no sklearn offline)."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    n = len(a)
    ct = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(ct, (a, b), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(ct).sum()
    sum_a = comb2(ct.sum(axis=1)).sum()
    sum_b = comb2(ct.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def labels_equivalent(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two labelings induce the same partition (up to renaming)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    seen = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if x in seen:
            if seen[x] != y:
                return False
        else:
            seen[x] = y
    return len(set(seen.values())) == len(seen)
