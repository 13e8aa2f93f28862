"""Batched k-way triple-list merge — the kernel behind ``merge_lists``.

Each input list is sorted and duplicate-free, so the merged coordinate
multiset fits a dense accumulator: encode (col, row) as one flat key and
``np.bincount`` the values.  bincount accumulates in input order, i.e.
colliding entries are summed in concatenation (list) order — the
library's canonical left-to-right order, the same a sequential
accumulator over the lists would use.  Cancellation zeros survive
(occupancy is tracked by touch, not by value).

Oversized outputs take a combined-key *stable* argsort instead, which
keeps colliding entries in the same concatenation order, then the
ordered group sum.
"""

from __future__ import annotations

import numpy as np

from ..sparse import _compressed as _c
from .arena import global_arena
from .esc import DENSE_CELL_LIMIT, DENSE_WASTE_FACTOR


def merge_triples(lists, shape):
    """Merge sorted, duplicate-free triple lists; returns (cols, rows, vals).

    ``lists`` must be non-empty lists (the caller strips empties), all of
    the same block shape.
    """
    nrows, ncols = shape
    cols = np.concatenate([t.cols for t in lists])
    rows = np.concatenate([t.rows for t in lists])
    vals = np.concatenate([t.vals for t in lists])
    key = cols * np.int64(nrows)
    key += rows
    n = len(key)
    n2 = nrows * ncols
    if n2 <= DENSE_CELL_LIMIT and n2 <= DENSE_WASTE_FACTOR * n:
        arena = global_arena()
        dense = np.bincount(key, weights=vals, minlength=n2)
        flags = arena.flags("merge:occupied", n2)
        flags[key] = True
        pos = np.flatnonzero(flags)
        flags[pos] = False
        out_vals = dense[pos]
        out_cols, out_rows = np.divmod(pos, np.int64(nrows))
        return out_cols, out_rows, out_vals
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = vals[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    ukey = key[starts]
    out_vals = _c.groupsum_ordered(vals, boundary)
    out_cols, out_rows = np.divmod(ukey, np.int64(nrows))
    return out_cols, out_rows, out_vals


def range_cells(nrows: int, lo: int, hi: int) -> int:
    """Dense-accumulator cell count of column range [lo, hi)."""
    return (int(hi) - int(lo)) * int(nrows)


def range_dense_eligible(nrows, lo, hi, n) -> bool:
    """Whether the partition's dense scatter stays within the ESC limits."""
    cells = range_cells(nrows, lo, hi)
    return n > 0 and cells <= DENSE_CELL_LIMIT and cells <= DENSE_WASTE_FACTOR * n


def merge_keyed_range_dense(key, vals, nrows, lo, hi):
    """Dense-scatter accumulate flat keys restricted to columns [lo, hi).

    ``key`` holds ``col * nrows + row`` entries whose columns all fall in
    the range; the accumulator is offset by ``lo * nrows`` so only the
    range's cells are materialized.  Same order argument as
    :func:`merge_triples`: bincount sums in input order, matching a stable
    sort's left-to-right run accumulation.  The caller must have checked
    :func:`range_dense_eligible`.
    """
    base = np.int64(lo) * np.int64(nrows)
    cells = range_cells(nrows, lo, hi)
    local = key - base
    dense = np.bincount(local, weights=vals, minlength=cells)
    arena = global_arena()
    flags = arena.flags("spkadd:occupied", cells)
    flags[local] = True
    pos = np.flatnonzero(flags)
    flags[pos] = False
    out_vals = dense[pos]
    out_cols, out_rows = np.divmod(pos + base, np.int64(nrows))
    return out_cols, out_rows, out_vals
