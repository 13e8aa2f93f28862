"""Cohen's probabilistic output-size estimator for SpGEMM (paper §V).

``C = A·B`` is modeled as a three-layer graph: first-layer vertices are the
rows of A, middle-layer vertices the columns of A (= rows of B), and
third-layer vertices the columns of B (Fig. 3).  Each first-layer vertex i
draws ``r`` independent keys ``k_{i,1..r} ~ Exp(λ)``; propagating the
*minimum* key across layers gives, at third-layer vertex j, the minimum
over exactly the first-layer vertices that reach j — i.e. over the row
indices of output column j.  The size of that reachability set (= nnz of
the output column) is estimated by the classic minimum-of-exponentials
identity::

    nnz(C_{*j})  ≈  (r - 1) / Σ_{t=1..r} y_{j,t}

where ``y_{j,t}`` is the t-th propagated minimum.  Cost is
``O(r · (nnz A + nnz B))`` — independent of flops — with relative error
shrinking as r grows (the paper uses r ∈ {3, 5, 7, 10} and sees ≤~10 %).

Both propagation steps are a gather plus a segmented ``minimum.reduceat``;
no Python-level loop over columns, per the vectorization idiom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EstimationError, ShapeError
from ..sparse import CSCMatrix
from ..util.rng import as_generator


def _propagate_min(keys: np.ndarray, mat: CSCMatrix) -> np.ndarray:
    """Per (replica, column) minimum of ``keys[:, row]`` over stored rows.

    ``keys`` has shape (r, n_in); result has shape (r, ncols) with +inf for
    empty columns.  This is one layer hop of Cohen's propagation.
    """
    r = keys.shape[0]
    out = np.full((r, mat.ncols), np.inf)
    nonempty = np.flatnonzero(mat.column_lengths())
    if len(nonempty) == 0:
        return out
    gathered = np.take(keys, mat.indices, axis=1, mode="clip")
    out[:, nonempty] = np.minimum.reduceat(
        gathered, mat.indptr[nonempty], axis=1
    )
    return out


@dataclass(frozen=True)
class NnzEstimate:
    """Result of one probabilistic estimation pass."""

    per_column: np.ndarray  # float estimates, length ncols(B)
    total: float
    keys: int  # the r used
    operations: float  # modeled cost, r * (nnzA + nnzB)


def estimate_nnz(
    a: CSCMatrix,
    b: CSCMatrix,
    keys: int = 5,
    seed=None,
    rate: float = 1.0,
    injector=None,
) -> NnzEstimate:
    """Estimate the per-column and total ``nnz(A·B)``.

    Parameters
    ----------
    keys:
        Number of exponential key replicas ``r``; must be >= 2 because the
        estimator ``(r-1)/Σy`` needs ``r-1 > 0``.  Accuracy improves like
        ``1/sqrt(r)``.
    rate:
        Rate λ of the exponential distribution (the paper uses λ = 1; the
        estimate is λ-invariant because λ cancels, exposed for testing).
    seed:
        Seed or generator for the key draws.
    injector:
        Optional :class:`repro.resilience.faults.FaultInjector`.  A
        ``"bound-miss"`` fault raises
        :class:`~repro.resilience.faults.InjectedEstimationError` — the
        estimator detected its probabilistic bound was wrong, and the
        caller backs off to the exact symbolic pass (Cohen's own recovery
        ladder).  An ``"underestimate"`` fault silently deflates the
        estimate, modeling the §VII-D hazard the overrun recovery handles.
    """
    if a.ncols != b.nrows:
        raise ShapeError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    if keys < 2:
        raise EstimationError(f"need at least 2 keys, got {keys}")
    if rate <= 0:
        raise EstimationError(f"exponential rate must be positive, got {rate}")
    fault = injector.estimator_fault() if injector is not None else None
    if fault == "bound-miss":
        from ..resilience.faults import InjectedEstimationError

        raise InjectedEstimationError(
            f"injected Cohen bound miss (r={keys}): estimate rejected, "
            "fall back to the exact symbolic pass"
        )
    deflation = (
        injector.plan.estimator_deflation if fault == "underestimate" else 1.0
    )
    rng = as_generator(seed)
    ops = float(keys) * (a.nnz + b.nnz)
    per_column = np.zeros(b.ncols)
    if a.nnz == 0 or b.nnz == 0 or a.nrows == 0:
        return NnzEstimate(per_column, 0.0, keys, ops)

    first_layer = rng.exponential(scale=1.0 / rate, size=(keys, a.nrows))
    middle = _propagate_min(first_layer, a)  # keys at cols of A / rows of B
    final = _propagate_min(middle, b)  # keys at cols of B
    sums = final.sum(axis=0)
    reached = np.isfinite(sums)
    # (r-1)/Σy is the unbiased estimator of the reachability-set size for
    # exponential minima; multiply by λ to undo the scale.
    per_column[reached] = (keys - 1) / (sums[reached] * rate)
    if deflation != 1.0:
        per_column *= deflation
    return NnzEstimate(per_column, float(per_column.sum()), keys, ops)


def relative_error(estimate: float, exact: float) -> float:
    """|estimate - exact| / exact, in percent (0 when both are zero)."""
    if exact == 0:
        return 0.0 if estimate == 0 else float("inf")
    return abs(estimate - exact) / exact * 100.0
