"""SpGEMM work metrics: ``flops`` and compression factor ``cf``.

The paper's notation (§II): for ``C = A·B``,

* ``flops(AB) = Σ_j Σ_{k ∈ inds(B_{*j})} nnz(A_{*k})`` — the number of
  nontrivial scalar multiply-adds;
* ``cf(AB) = flops(AB) / nnz(AB)`` — how much the intermediate products
  compress when summed into C.

Both drive the paper's kernel-selection recipe (hash beats heap at large
cf; nsparse beats rmerge2 at large cf; GPU only pays off above a flops
threshold) and the crossover between the exact and probabilistic memory
estimators.  Everything here is exact and vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..sparse import CSCMatrix


def flops_per_entry(a: CSCMatrix, b: CSCMatrix) -> np.ndarray:
    """``nnz(A_{*k})`` for every stored entry ``b_kj``: the products it
    generates.  Every other count here is a reduction of this gather."""
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    return a.column_lengths()[b.indices]


def flops_per_column(a: CSCMatrix, b: CSCMatrix) -> np.ndarray:
    """``flops`` contributed by each output column of ``A·B``.

    For output column j this is the sum of ``nnz(A_{*k})`` over the row
    indices k of ``B_{*j}``.  One gather + one ``reduceat`` — no loops.
    """
    per_entry = flops_per_entry(a, b)
    out = np.zeros(b.ncols, dtype=np.int64)
    lens = b.column_lengths()
    nonempty = np.flatnonzero(lens)
    if len(nonempty):
        out[nonempty] = np.add.reduceat(per_entry, b.indptr[nonempty])
    return out


def flops(a: CSCMatrix, b: CSCMatrix) -> int:
    """Total ``flops(AB)`` (multiply-add pairs with both operands nonzero)."""
    return int(flops_per_entry(a, b).sum())


def compression_factor(a: CSCMatrix, b: CSCMatrix, c_nnz: int) -> float:
    """``cf(AB) = flops / nnz(C)``; 1.0 when the product is empty."""
    if c_nnz < 0:
        raise ValueError(f"c_nnz must be non-negative, got {c_nnz}")
    f = flops(a, b)
    if c_nnz == 0:
        return 1.0
    return f / c_nnz


@dataclass(frozen=True)
class WorkProfile:
    """Summary of one SpGEMM instance's work characteristics.

    The hybrid kernel selector (paper §III, §VII-B) consumes exactly these
    numbers; the benchmark harness records them per SUMMA stage.
    """

    flops: int
    nnz_a: int
    nnz_b: int
    nnz_c: int
    cf: float
    max_column_flops: int
    mean_column_flops: float

    @property
    def is_empty(self) -> bool:
        return self.flops == 0

    @classmethod
    def from_per_column(
        cls, per_col: np.ndarray, nnz_a: int, nnz_b: int, c_nnz: int
    ) -> "WorkProfile":
        """The profile of a product whose :func:`flops_per_column` is
        ``per_col`` — the SUMMA engine already holds it per stage product,
        so it never recomputes flops."""
        total = int(per_col.sum())
        n_used = max(1, int((per_col > 0).sum()))
        return cls(
            flops=total,
            nnz_a=nnz_a,
            nnz_b=nnz_b,
            nnz_c=int(c_nnz),
            cf=(total / c_nnz) if c_nnz > 0 else 1.0,
            max_column_flops=int(per_col.max(initial=0)),
            mean_column_flops=total / n_used,
        )


def work_profile(a: CSCMatrix, b: CSCMatrix, c_nnz: int) -> WorkProfile:
    """Build a :class:`WorkProfile` for ``A·B`` given the output nnz.

    ``c_nnz`` may come from the exact symbolic pass or from the Cohen
    estimator — the profile does not care, which is precisely what lets the
    probabilistic estimator substitute for symbolic SpGEMM.
    """
    return WorkProfile.from_per_column(
        flops_per_column(a, b), a.nnz, b.nnz, c_nnz
    )
