"""Batched-union connected components by min-label propagation.

Min-label propagation: every vertex repeatedly takes the minimum label
over itself and its neighbours (both edge directions, via the matrix and
its transpose, each a gather + segmented ``minimum.reduceat``), with a
pointer-jumping step (``labels = labels[labels]``) to collapse chains in
O(log n) rounds.  At the fixpoint each vertex holds the minimum vertex id
of its component, so after first-occurrence canonicalization the labels
depend only on the partition — identical to what a union-find produces.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSCMatrix


def _min_into_major(labels: np.ndarray, indptr, indices, lens) -> bool:
    """One propagation hop: majors take the min over their stored minors."""
    nonempty = np.flatnonzero(lens)
    if len(nonempty) == 0:
        return False
    mins = np.minimum.reduceat(labels[indices], indptr[nonempty])
    current = labels[nonempty]
    better = mins < current
    if not better.any():
        return False
    labels[nonempty[better]] = mins[better]
    return True


def min_label_components(mat: CSCMatrix) -> np.ndarray:
    """Per-vertex minimum component member id (raw, pre-canonical labels)."""
    n = mat.nrows
    labels = np.arange(n, dtype=np.int64)
    if mat.nnz == 0 or n == 0:
        return labels
    matt = mat.transpose()
    fwd = (mat.indptr, mat.indices, mat.column_lengths())
    bwd = (matt.indptr, matt.indices, matt.column_lengths())
    while True:
        changed = _min_into_major(labels, *fwd)
        changed |= _min_into_major(labels, *bwd)
        # Pointer jumping: a vertex's label is itself a vertex id whose
        # label can only be smaller-or-equal; chase it until stable.
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if not changed:
            return labels
