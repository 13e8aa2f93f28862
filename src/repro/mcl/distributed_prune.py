"""The distributed top-k selection of HipMCL (paper §II).

A matrix column lives split across the √P ranks of one processor column,
so "keep the k largest entries of every column" needs coordination.
HipMCL "identifies top-k entries in every column by selecting top-k
entries in each process and then exchanging these entries with other
processes": any entry outside its *local* top-k can never be in the
*global* top-k, so each rank contributes at most k candidates per column,
the group selects the global k-th largest as a threshold, and every rank
filters locally against it.

:func:`distributed_topk_threshold` computes that protocol's thresholds
on real data; :func:`distributed_prune_block_column` combines them
with the cutoff rule and is validated (in tests) to produce bit-identical
results to the centralized :func:`repro.mcl.prune.prune_columns`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..perf.topk import column_kth_largest
from ..sparse import CSCMatrix
from ..sparse import _compressed as _c
from .options import MclOptions


def distributed_topk_threshold(
    blocks: list[CSCMatrix], k: int
) -> np.ndarray:
    """The global k-th-largest value per column from per-rank candidates.

    ``blocks`` are the processor column's local blocks (same ncols).
    Columns with fewer than k entries get threshold ``-inf`` (keep all).

    The global k-th largest of the per-rank candidate union equals the
    k-th largest of the full column (the global top-k is a subset of every
    rank's local top-k), and a column has >= k candidates iff it has >= k
    entries, so the thresholds come straight from the blocks' values: one
    padded ``np.partition``, or one sort where padding would be wasteful.
    """
    if not blocks:
        raise ValueError("need at least one block")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ncols = blocks[0].ncols
    for blk in blocks:
        if blk.ncols != ncols:
            raise ShapeError(
                f"block widths differ: {blk.ncols} vs {ncols}"
            )
    parts_c = [_c.expand_major(b.indptr, b.ncols) for b in blocks if b.nnz]
    parts_v = [b.data for b in blocks if b.nnz]
    if not parts_c:
        return np.full(ncols, -np.inf)
    cols = np.concatenate(parts_c)
    vals = np.concatenate(parts_v)
    order = np.argsort(cols, kind="stable")
    thresholds = column_kth_largest(cols[order], vals[order], ncols, k)
    if thresholds is not None:
        return thresholds
    # Padding would be wasteful: rank each column's entries by sorting.
    order = np.lexsort((-vals, cols))
    sorted_cols = cols[order]
    seq = np.arange(len(order))
    new_col = np.empty(len(order), dtype=bool)
    new_col[0] = True
    new_col[1:] = sorted_cols[1:] != sorted_cols[:-1]
    first = np.maximum.accumulate(np.where(new_col, seq, 0))
    # The k-th largest (0-based rank k-1) is the cut; columns with fewer
    # than k entries have no such rank and keep everything.
    at_cut = seq - first == k - 1
    thresholds = np.full(ncols, -np.inf)
    thresholds[sorted_cols[at_cut]] = vals[order][at_cut]
    return thresholds


def filter_block_by_threshold(
    block: CSCMatrix,
    thresholds: np.ndarray,
    cutoff: float,
) -> CSCMatrix:
    """Local filter against the exchanged thresholds plus the cutoff.

    Keeps every entry with ``value >= max(cutoff, column threshold)`` —
    ties at the threshold included, so a column can keep more than k
    entries when its k-th largest value repeats — and drops the rest.
    Kept entries stay in the order they have in ``block``: the filter
    reads each entry on its own, so the order of the rows within a
    column changes nothing but the order of the output.
    """
    if block.nnz == 0:
        return block.copy()
    cols = _c.expand_major(block.indptr, block.ncols)
    bound = np.maximum(thresholds[cols], cutoff)
    keep = block.data >= bound
    return CSCMatrix(
        block.shape,
        _c.compress_major(cols[keep], block.ncols),
        block.indices[keep],
        block.data[keep],
        check=False,
    )


def distributed_prune_block_column(
    blocks: list[CSCMatrix], options: MclOptions
) -> list[CSCMatrix]:
    """Prune one processor column's blocks with the §II protocol.

    Cutoff first (local), then the candidate exchange + global-threshold
    selection when ``select_number`` is set.  Returns new blocks, one per
    input rank.  Every step reads a column's entries as a multiset, so the
    rows of a column may come in any order; each output block keeps the
    order of its input.
    """
    from ..sparse import filter_threshold

    pruned = [
        filter_threshold(blk, options.prune_threshold) for blk in blocks
    ]
    if not options.select_number:
        return pruned
    thresholds = distributed_topk_threshold(pruned, options.select_number)
    return [
        filter_block_by_threshold(blk, thresholds, options.prune_threshold)
        for blk in pruned
    ]
