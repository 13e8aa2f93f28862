"""Structural diagnostics for sparse matrices and their 2-D distributions.

The quantities that decide every algorithmic choice in the paper live
here: nonzeros-per-column statistics (heap vs hash regimes, §VI), the
flops/cf landscape of squaring (§II notation), hypersparsity of 2-D blocks
(DCSC's raison d'être, §III-B), and projected block load imbalance (the
SUMMA stage critical path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _compressed as _c
from .csc import CSCMatrix


@dataclass(frozen=True)
class ColumnProfile:
    """Distribution of nonzeros per column."""

    n_columns: int
    empty_columns: int
    mean: float
    median: float
    p95: float
    maximum: int

    @classmethod
    def of(cls, mat: CSCMatrix) -> "ColumnProfile":
        lens = mat.column_lengths()
        if len(lens) == 0:
            return cls(0, 0, 0.0, 0.0, 0.0, 0)
        return cls(
            n_columns=mat.ncols,
            empty_columns=int((lens == 0).sum()),
            mean=float(lens.mean()),
            median=float(np.median(lens)),
            p95=float(np.percentile(lens, 95)),
            maximum=int(lens.max()),
        )


def squaring_profile(mat: CSCMatrix) -> dict[str, float]:
    """The §II work metrics of ``A·A`` without computing the product.

    Returns flops, an nnz upper bound (min(flops, dense)), and the flops
    Gini-style concentration across columns (how unevenly expansion work
    is distributed — the load-balance hazard of skewed graphs).
    """
    from ..spgemm.metrics import flops_per_column

    if mat.nrows != mat.ncols:
        raise ValueError(f"squaring needs a square matrix: {mat.shape}")
    per_col = flops_per_column(mat, mat).astype(np.float64)
    total = float(per_col.sum())
    if total == 0:
        return {"flops": 0.0, "nnz_upper_bound": 0.0, "flops_top1pct": 0.0}
    ordered = np.sort(per_col)[::-1]
    top = max(1, len(ordered) // 100)
    return {
        "flops": total,
        "nnz_upper_bound": float(
            min(total, float(mat.nrows) * mat.ncols)
        ),
        "flops_top1pct": float(ordered[:top].sum() / total),
    }


def hypersparsity(mat: CSCMatrix, processes: int) -> dict[str, float]:
    """How hypersparse the 2-D blocks of ``mat`` would be on ``processes``.

    ``nnz_per_block / cols_per_block`` below ~1 is the regime where DCSC's
    doubly compressed pointers pay for themselves (Buluç & Gilbert).
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1: {processes}")
    q = math.isqrt(processes)
    if q * q != processes:
        raise ValueError(f"processes must be a perfect square: {processes}")
    nnz_per_block = mat.nnz / processes
    cols_per_block = mat.ncols / q
    return {
        "nnz_per_block": nnz_per_block,
        "cols_per_block": cols_per_block,
        "fill_ratio": nnz_per_block / max(cols_per_block, 1.0),
        "dcsc_recommended": float(nnz_per_block < cols_per_block),
    }


def block_imbalance(mat: CSCMatrix, processes: int) -> float:
    """max/mean nonzeros over the would-be 2-D blocks (≥ 1).

    Computed from a 2-D histogram of the coordinates — no blocks are
    materialized.
    """
    q = math.isqrt(processes)
    if q * q != processes or q < 1:
        raise ValueError(f"processes must be a perfect square: {processes}")
    if mat.nnz == 0:
        return 1.0
    cols = _c.expand_major(mat.indptr, mat.ncols)
    # Widened: an index times q can pass 2³¹.
    q64 = np.int64(q)
    row_block = np.minimum(mat.indices * q64 // max(mat.nrows, 1), q - 1)
    col_block = np.minimum(cols * q64 // max(mat.ncols, 1), q - 1)
    counts = np.bincount(row_block * q + col_block, minlength=q * q)
    return float(counts.max() / counts.mean())
