"""Symbolic SpGEMM: exact output structure without numeric values.

Original HipMCL runs the whole distributed multiplication twice — once
symbolically to size buffers and pick the phase count, once numerically
(§I, §V).  The symbolic pass never materializes C's values but still costs
O(flops), which the paper replaces with the probabilistic estimator of
:mod:`repro.spgemm.estimator`.  This module provides the exact pass, both
as the correctness reference for the estimator and as the "exact" branch
the optimized HipMCL falls back to when cf is small (§VII-D).

The pass is sort-free where it can be, in the manner of the symbolic
phase of Nagasaka/Azad/Buluç's two-phase hash SpGEMM: B is walked in
column slabs of about :data:`SLAB_FLOPS` products, each slab's output
coordinates are expanded by the numeric ESC kernel's own arena-backed
gather (:func:`repro.perf.esc.expand_keys`), marked in a boolean occupancy
scratch, counted per column and the slab cleared.  A slab whose cells
dwarf its products (late MCL iterations, hypersparse inputs) sorts just
its own keys instead, chosen by the price rule the numeric kernel applies
(:func:`repro.perf.esc.dense_pays`).  Time O(flops), transient memory
O(slab) — never O(total flops) and never O(nrows·ncols).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..perf.arena import global_arena
from ..perf.esc import dense_pays, expand_keys
from ..sparse import CSCMatrix

#: Products expanded per column slab of B (a single column with more is
#: its own slab): four int64 scratch arrays of this length stay in L2.
SLAB_FLOPS = 1 << 16


def symbolic_nnz_per_column(
    a: CSCMatrix, b: CSCMatrix, entry_flops: np.ndarray | None = None
) -> np.ndarray:
    """Exact ``nnz`` of every column of ``A·B`` (no values computed).

    Structure only: explicitly stored zeros count and exact numeric
    cancellation does not remove an entry.  ``entry_flops`` is
    ``nnz(A_{*k})`` per stored entry ``b_kj`` for a caller that already
    holds it (:func:`repro.spgemm.metrics.flops_per_entry`).
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    counts = np.zeros(b.ncols, dtype=np.int64)
    reps = entry_flops
    if reps is None:
        reps = a.column_lengths()[b.indices]
    ends = np.cumsum(reps)
    if len(ends) == 0 or ends[-1] == 0:
        return counts
    # Products generated before each column of B.
    before = np.concatenate(([0], ends))[b.indptr]
    nrows = a.nrows
    arena = global_arena()
    c0 = 0
    while c0 < b.ncols:
        done = int(before[c0])
        c1 = max(
            c0 + 1,
            int(np.searchsorted(before, done + SLAB_FLOPS, side="right")) - 1,
        )
        total = int(before[c1]) - done
        if total:
            e0, e1 = b.indptr[c0], b.indptr[c1]
            key, _ = expand_keys(
                a, b.indptr[c0:c1 + 1] - e0, b.indices[e0:e1],
                reps[e0:e1], ends[e0:e1] - done, total,
            )
            width = c1 - c0
            if dense_pays(nrows * width, total):
                flags = arena.flags("esc:occupied", nrows * width)
                flags[key] = True
                counts[c0:c1] = np.count_nonzero(
                    flags.reshape(width, nrows), axis=1
                )
                # The count just scanned these cells, so clearing the
                # slab beats un-marking by index (docs/performance.md).
                flags[:] = False
            else:
                key.sort()
                first = np.concatenate(([True], key[1:] != key[:-1]))
                counts[c0:c1] = np.bincount(
                    key[first] // nrows, minlength=width
                )
        c0 = c1
    return counts


def symbolic_nnz(
    a: CSCMatrix, b: CSCMatrix, entry_flops: np.ndarray | None = None
) -> int:
    """Exact total ``nnz(A·B)``."""
    return int(symbolic_nnz_per_column(a, b, entry_flops).sum())


def symbolic_operation_count(a: CSCMatrix, b: CSCMatrix) -> float:
    """Modeled cost of the symbolic pass: O(flops).

    The paper's comparison (Fig. 6 bottom): exact estimation costs
    ``cf · nnz(C) = flops`` while the probabilistic scheme costs
    ``r · (nnz A + nnz B)`` — the crossover in later MCL iterations falls
    out of these two counts.
    """
    from .metrics import flops

    return float(flops(a, b))
