"""The distributed top-k selection of HipMCL (paper §II).

A matrix column lives split across the √P ranks of one processor column,
so "keep the k largest entries of every column" needs coordination.
HipMCL "identifies top-k entries in every column by selecting top-k
entries in each process and then exchanging these entries with other
processes": any entry outside its *local* top-k can never be in the
*global* top-k, so each rank contributes at most k candidates per column,
the group selects the global k-th largest as a threshold, and every rank
filters locally against it.

:func:`distributed_topk_threshold` implements exactly that per-rank
protocol on real data; :func:`distributed_prune_block_column` combines it
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


def local_topk_candidates(
    block: CSCMatrix, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column candidate values: each column's up-to-k largest entries.

    Returns ``(cols, vals)`` of the candidate entries — the payload a rank
    ships to its processor-column peers.  Vectorized with one global sort.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if block.nnz == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0)
    cols = _c.expand_major(block.indptr, block.ncols)
    order = np.lexsort((-block.data, cols))
    sorted_cols = cols[order]
    seq = np.arange(len(order))
    new_col = np.empty(len(order), dtype=bool)
    new_col[0] = True
    new_col[1:] = sorted_cols[1:] != sorted_cols[:-1]
    first = np.maximum.accumulate(np.where(new_col, seq, 0))
    rank_in_col = seq - first
    keep = rank_in_col < k
    return sorted_cols[keep], block.data[order][keep]


def _partition_thresholds(
    blocks: list[CSCMatrix], k: int, ncols: int
) -> np.ndarray | None:
    """Partition-based thresholds, bit-identical to the candidate protocol.

    The global k-th largest of the per-rank candidate union equals the
    k-th largest of the full column (the global top-k is a subset of every
    rank's local top-k), and a column has >= k candidates iff it has >= k
    entries — so the thresholds can be computed directly from the blocks'
    values with one padded ``np.partition``, no candidate sort needed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    parts_c = [_c.expand_major(b.indptr, b.ncols) for b in blocks if b.nnz]
    parts_v = [b.data for b in blocks if b.nnz]
    if not parts_c:
        return np.full(ncols, -np.inf)
    cols = np.concatenate(parts_c)
    vals = np.concatenate(parts_v)
    order = np.argsort(cols, kind="stable")
    return column_kth_largest(cols[order], vals[order], ncols, k)


def distributed_topk_threshold(
    blocks: list[CSCMatrix], k: int
) -> np.ndarray:
    """The global k-th-largest value per column from per-rank candidates.

    ``blocks`` are the processor column's local blocks (same ncols).
    Columns with at most k entries get threshold ``-inf`` (keep all).
    """
    if not blocks:
        raise ValueError("need at least one block")
    ncols = blocks[0].ncols
    for blk in blocks:
        if blk.ncols != ncols:
            raise ShapeError(
                f"block widths differ: {blk.ncols} vs {ncols}"
            )
    thresholds = _partition_thresholds(blocks, k, ncols)
    if thresholds is not None:
        return thresholds
    # Padding would be wasteful: run the per-rank candidate exchange.
    all_cols, all_vals = [], []
    for blk in blocks:
        cols, vals = local_topk_candidates(blk, k)
        all_cols.append(cols)
        all_vals.append(vals)
    cols = np.concatenate(all_cols) if all_cols else np.empty(0, np.int64)
    vals = np.concatenate(all_vals) if all_vals else np.empty(0)
    thresholds = np.full(ncols, -np.inf)
    if len(cols) == 0:
        return thresholds
    order = np.lexsort((-vals, cols))
    sorted_cols = cols[order]
    sorted_vals = vals[order]
    seq = np.arange(len(order))
    new_col = np.empty(len(order), dtype=bool)
    new_col[0] = True
    new_col[1:] = sorted_cols[1:] != sorted_cols[:-1]
    first = np.maximum.accumulate(np.where(new_col, seq, 0))
    rank_in_col = seq - first
    # The k-th largest (0-based rank k-1) is the cut; columns with fewer
    # candidates than k keep everything.
    at_cut = rank_in_col == k - 1
    thresholds[sorted_cols[at_cut]] = sorted_vals[at_cut]
    counts = np.bincount(sorted_cols, minlength=ncols)
    thresholds[counts < k] = -np.inf
    return thresholds


def filter_block_by_threshold(
    block: CSCMatrix,
    thresholds: np.ndarray,
    cutoff: float,
    k: int,
) -> CSCMatrix:
    """Local filter against the exchanged thresholds plus the cutoff.

    Keeps entries with ``value >= max(cutoff, column threshold)``.  Ties
    *at* the threshold are kept and then capped back to the local share of
    k by value rank — with distinct values this equals the centralized
    top-k exactly (ties are broken the same way because the global sort
    in :func:`distributed_topk_threshold` and the centralized prune use
    the same descending-stable order).
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
    input rank.
    """
    from ..sparse import filter_threshold

    pruned = [
        filter_threshold(blk, options.prune_threshold) for blk in blocks
    ]
    if not options.select_number:
        return pruned
    thresholds = distributed_topk_threshold(pruned, options.select_number)
    return [
        filter_block_by_threshold(
            blk, thresholds, options.prune_threshold, options.select_number
        )
        for blk in pruned
    ]
