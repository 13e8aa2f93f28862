"""Connected components of the converged matrix → cluster labels.

MCL's output interpretation (Algorithm 1, line 6): the clusters are the
connected components of the graph underlying the converged matrix,
computed by a fully vectorized min-label propagation
(:mod:`repro.perf.components`).  The from-scratch union-find (path
halving, union by size) is the incremental structure the attractor-based
interpretation needs on its small per-cluster edge sets, and the tests'
oracle for the propagation.  Both canonicalize labels the same way —
components numbered by their smallest member — so they agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..perf.components import min_label_components
from ..sparse import CSCMatrix


def canonical_labels(raw: np.ndarray) -> np.ndarray:
    """Relabel per-vertex component ids to 0..k-1 in first-occurrence order.

    First-occurrence order equals smallest-member order, which depends
    only on the partition — not on which representative (union-find root
    or propagated minimum) an implementation happened to produce.
    """
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inverse]


class UnionFind:
    """Disjoint sets over ``n`` elements (path halving, union by size)."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"negative universe size: {n}")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were separate."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def labels(self) -> np.ndarray:
        """Canonical 0..k-1 labels, components numbered by smallest member."""
        n = len(self.parent)
        roots = np.fromiter(
            (self.find(i) for i in range(n)), dtype=np.int64, count=n
        )
        return canonical_labels(roots)


def connected_components(mat: CSCMatrix) -> np.ndarray:
    """Component label per vertex of the (undirected) graph of ``mat``.

    Direction is ignored: an entry at (i, j) connects i and j both ways,
    matching mcl's interpretation of the converged flow matrix.
    """
    if mat.nrows != mat.ncols:
        raise ShapeError(f"components need a square matrix, got {mat.shape}")
    return canonical_labels(min_label_components(mat))


def clusters_from_labels(labels: np.ndarray) -> list[list[int]]:
    """Group vertex ids by label, largest cluster first."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_labels[1:] != sorted_labels[:-1]))
    )
    groups = [
        order[lo:hi].tolist()
        for lo, hi in zip(boundaries, np.append(boundaries[1:], len(labels)))
    ]
    groups.sort(key=len, reverse=True)
    return groups
