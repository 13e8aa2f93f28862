"""Partition-based per-column top-k for the prune paths.

"Keep the k largest entries of each column, ties broken by position" is
the keep-set a stable descending sort within each column would rank below
k.  This module finds it without sorting: each column's k-th largest
value comes from one segment-padded ``np.partition`` call, everything
strictly above that threshold is kept, and the remaining quota is filled
with threshold ties *in position order* — precisely the entries the
stable sort would have kept.  No new floating-point values are created.

Only the columns with at least k entries need a threshold, so only they
are padded, to the longest of them.  When even that would be wasteful
(:data:`PAD_WASTE_FACTOR`, :data:`PAD_CELL_LIMIT`) the functions return
``None`` and the caller ranks by sorting instead.
"""

from __future__ import annotations

import numpy as np

#: Hand back to the caller's sort-based ranking when padding the columns
#: that need a threshold to the longest of them would blow their footprint
#: up by more than this factor.
PAD_WASTE_FACTOR = 64
PAD_CELL_LIMIT = 1 << 24


def column_kth_largest(
    cols: np.ndarray, vals: np.ndarray, ncols: int, k: int
) -> np.ndarray | None:
    """Per-column k-th largest value; ``-inf`` where the column has < k
    entries.  ``cols`` must be sorted ascending (values in any order
    within a column).  Returns None when padding would be wasteful —
    the caller then ranks by sorting.

    Only the columns with at least k entries get a finite threshold, so
    only they are padded (to the longest of them) and partitioned; the
    waste guard weighs that padded partition against their entries.
    """
    thresholds = np.full(ncols, -np.inf)
    if len(cols) == 0:
        return thresholds
    counts = np.bincount(cols, minlength=ncols)
    full = np.flatnonzero(counts >= k)
    if len(full) == 0:
        return thresholds
    lengths = counts[full]
    n = int(lengths.sum())
    width = int(lengths.max())
    cells = width * len(full)
    if cells > max(PAD_WASTE_FACTOR * n, 1024) or cells > PAD_CELL_LIMIT:
        return None
    # Row r of the partition holds column full[r]; pos is an entry's
    # position within its column.
    first = (np.cumsum(counts) - counts)[full]
    row = np.repeat(np.arange(len(full)), lengths)
    pos = np.arange(n, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    padded = np.full((len(full), width), -np.inf)
    padded[row, pos] = vals[first[row] + pos]
    thresholds[full] = np.partition(padded, width - k, axis=1)[:, width - k]
    return thresholds


def topk_select_mask(
    cols: np.ndarray, vals: np.ndarray, ncols: int, k: int
) -> np.ndarray | None:
    """Boolean keep-mask equal to "stable descending rank within column < k".

    ``cols`` must be sorted ascending with ties resolved by original
    position (CSC entry order) — the order a stable sort would keep.
    Returns None when the padded partition is not worthwhile.
    """
    n = len(cols)
    thresholds = column_kth_largest(cols, vals, ncols, k)
    if thresholds is None:
        return None
    counts = np.bincount(cols, minlength=ncols)
    full_enough = counts >= k
    keep = ~full_enough[cols]  # short columns keep everything
    if not full_enough.any():
        return keep
    tcol = thresholds[cols]
    greater = vals > tcol
    # Quota of threshold-tied entries each saturated column may still keep.
    n_greater = np.bincount(cols[greater], minlength=ncols)
    quota = k - n_greater
    tie = full_enough[cols] & (vals == tcol)
    # Rank of each tie among its column's ties, in position order: an
    # exclusive running count minus the count at the column's start.
    inc = np.cumsum(tie)
    excl = inc - tie
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    base = np.append(excl, excl[-1] + tie[-1])[starts] if n else excl
    tie_rank = excl - base[cols]
    keep |= greater
    keep |= tie & (tie_rank < quota[cols])
    return keep
