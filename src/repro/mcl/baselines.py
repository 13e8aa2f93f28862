"""Baseline clustering algorithms for quality comparison.

The paper's premise (§I) is that MCL's output quality is why biologists
tolerate its cost — faster heuristics "output lower quality clusters".
These two standard baselines let the examples and tests quantify that on
the planted networks:

* **weighted label propagation** (Raghavan et al.): each vertex adopts the
  label with the largest incident weight until a fixed point — near-linear
  time, but merges families connected by spurious hits;
* **connected components**: the degenerate baseline (everything that
  touches anything clusters together).
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSCMatrix
from ..util.rng import as_generator
from .components import connected_components


def label_propagation(
    matrix: CSCMatrix,
    *,
    max_rounds: int = 50,
    seed=None,
) -> np.ndarray:
    """Weighted label propagation on an undirected graph.

    Returns canonical 0..k-1 labels.  Deterministic given ``seed`` (vertex
    visit order is shuffled per round; weight ties break toward the
    smallest current label).
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError(
            f"label propagation needs a square matrix: {matrix.shape}"
        )
    n = matrix.nrows
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    rng = as_generator(seed)
    mat = matrix.sum_duplicates()
    labels = np.arange(n, dtype=np.int64)
    indptr, rows, vals = mat.indptr, mat.indices, mat.data
    for _ in range(max_rounds):
        changed = 0
        for v in rng.permutation(n):
            lo, hi = indptr[v], indptr[v + 1]
            if lo == hi:
                continue
            neigh_labels = labels[rows[lo:hi]]
            weights = vals[lo:hi]
            # Sum weight per incident label; ties to the smallest label.
            uniq, inverse = np.unique(neigh_labels, return_inverse=True)
            scores = np.zeros(len(uniq))
            np.add.at(scores, inverse, weights)
            best = uniq[int(np.argmax(scores))]
            if best != labels[v]:
                labels[v] = best
                changed += 1
        if changed == 0:
            break
    _, canonical = np.unique(labels, return_inverse=True)
    return canonical.astype(np.int64)


def component_clustering(matrix: CSCMatrix) -> np.ndarray:
    """The trivial baseline: connected components of the raw graph."""
    return connected_components(matrix)
