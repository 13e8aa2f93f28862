"""Pruning of the expanded matrix: cutoff, selection (top-k), recovery.

MCL keeps the iterate sparse by (Algorithm 1, line 4): dropping entries
below a threshold, then keeping only the k largest entries of any column
that is still too dense, and — the mcl binary's safety valve — recovering
the largest pre-cutoff entries of columns the cutoff emptied too far.

Everything is vectorized across columns: selection keeps what lies above
each column's k-th largest value (one padded partition), recovery ranks
entries within their column with one global sort by (column, -value), and
all three rules become boolean masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.topk import topk_select_mask
from ..sparse import CSCMatrix
from ..sparse import _compressed as _c
from .options import MclOptions


@dataclass(frozen=True)
class PruneStats:
    """What one prune pass did (feeds the stage accounting)."""

    entries_in: int
    entries_out: int
    cutoff_dropped: int
    select_dropped: int
    recovered: int


def _rank_within_column(cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """0-based rank of each entry among its column's values, descending.

    Ties broken by position (stable), matching mcl's deterministic
    selection up to input order.
    """
    order = np.lexsort((-vals, cols))
    n = len(cols)
    ranks = np.empty(n, dtype=np.int64)
    seq = np.arange(n, dtype=np.int64)
    sorted_cols = cols[order]
    # First position of each column run in the sorted permutation.
    first = np.empty(n, dtype=np.int64)
    if n:
        new_col = np.empty(n, dtype=bool)
        new_col[0] = True
        new_col[1:] = sorted_cols[1:] != sorted_cols[:-1]
        first = np.maximum.accumulate(np.where(new_col, seq, 0))
    ranks[order] = seq - first
    return ranks


def prune_columns(
    mat: CSCMatrix, options: MclOptions
) -> tuple[CSCMatrix, PruneStats]:
    """Apply cutoff → selection → recovery to every column of ``mat``.

    Returns the pruned matrix (sorted, compressed) and statistics.
    """
    n_in = mat.nnz
    if n_in == 0:
        return mat.copy(), PruneStats(0, 0, 0, 0, 0)
    cols = _c.expand_major(mat.indptr, mat.ncols)
    vals = mat.data

    keep = vals >= options.prune_threshold
    cutoff_dropped = int(n_in - keep.sum())

    select_dropped = 0
    if options.select_number:
        # Select among *surviving* entries only, so cutoff casualties
        # don't consume selection slots: everything above each column's
        # k-th largest survivor (partition-based, no sort), or — when
        # padding the columns for the partition would be wasteful — the
        # same keep-set from a stable descending rank.
        sel = topk_select_mask(
            cols[keep], vals[keep], mat.ncols, options.select_number
        )
        if sel is None:
            surv_rank = _rank_within_column(cols[keep], vals[keep])
            sel = surv_rank < options.select_number
        select_dropped = int((~sel).sum())
        keep_idx = np.flatnonzero(keep)
        keep = np.zeros(n_in, dtype=bool)
        keep[keep_idx[sel]] = True

    recovered = 0
    if options.recover_number:
        # Columns left with fewer than recover_number entries get their
        # largest pre-cutoff entries back, up to recover_number total.
        survivors_per_col = np.bincount(cols[keep], minlength=mat.ncols)
        weak = survivors_per_col < options.recover_number
        if weak.any():
            ranks = _rank_within_column(cols, vals)
            candidate = weak[cols] & (ranks < options.recover_number)
            recovered = int((candidate & ~keep).sum())
            keep |= candidate

    indptr = _c.compress_major(cols[keep], mat.ncols)
    pruned = CSCMatrix(
        mat.shape, indptr, mat.indices[keep], vals[keep], check=False
    )
    if not pruned.has_sorted_indices():
        pruned = pruned.sorted()
    return pruned, PruneStats(
        entries_in=n_in,
        entries_out=pruned.nnz,
        cutoff_dropped=cutoff_dropped,
        select_dropped=select_dropped,
        recovered=recovered,
    )
