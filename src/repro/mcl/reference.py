"""Sequential reference MCL (Algorithm 1 of the paper).

This is the single-process ground truth every distributed configuration is
validated against: same expansion, pruning, inflation and convergence
logic, pluggable SpGEMM kernel.  It also records the per-iteration work
profile (nnz, flops, cf, prune counts, chaos) that both the probabilistic-
estimator experiments and the fast accounting replay consume.

Expansion can run *fused with pruning* over column slabs
(``expand_slab_columns``), the sequential analogue of HipMCL's phased
execution: the unpruned product is never fully materialized, bounding
transient memory at the cost of re-reading A per slab.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, ShapeError, WeightError
from ..sparse import (
    CSCMatrix,
    add_self_loops,
    hstack_csc,
    normalize_columns,
)
from ..spgemm.esc import spgemm_esc
from ..spgemm.metrics import flops as flops_of
from .chaos import chaos as chaos_of
from .components import clusters_from_labels, connected_components
from .inflation import inflate
from .options import MclOptions
from .prune import PruneStats, prune_columns


@dataclass(frozen=True)
class IterationStats:
    """Work profile of one MCL iteration (exact counts, no modeling)."""

    index: int  # 1-based
    nnz_in: int
    flops: int
    nnz_expanded: int
    cf: float
    nnz_pruned: int
    prune: PruneStats
    chaos: float


@dataclass
class MclResult:
    """Outcome of a Markov clustering run."""

    labels: np.ndarray
    n_clusters: int
    iterations: int
    converged: bool
    history: list[IterationStats] = field(default_factory=list)
    final_matrix: CSCMatrix | None = None

    def clusters(self) -> list[list[int]]:
        """Vertex groups, largest first."""
        return clusters_from_labels(self.labels)


def prepare_matrix(matrix: CSCMatrix, options: MclOptions) -> CSCMatrix:
    """Canonical MCL input: optional self loops, column stochastic."""
    if matrix.nrows != matrix.ncols:
        raise ShapeError(f"MCL needs a square matrix, got {matrix.shape}")
    # NaN compares false against everything, so test finiteness first: a
    # NaN weight would otherwise normalize to a silently wrong clustering.
    if not np.isfinite(matrix.data).all():
        raise WeightError("MCL needs finite edge weights, got NaN or inf")
    if matrix.nnz and matrix.data.min() < 0:
        raise WeightError("MCL needs non-negative edge weights")
    work = matrix.sum_duplicates().pruned_zeros()
    if options.add_self_loops:
        work = add_self_loops(work)
    return normalize_columns(work)


def expand(
    matrix: CSCMatrix,
    options: MclOptions,
    *,
    spgemm=spgemm_esc,
    slab_columns: int | None = None,
) -> tuple[CSCMatrix, int, PruneStats]:
    """One expansion (A·A) fused with pruning, optionally slab by slab.

    Returns (pruned expanded matrix, exact unpruned nnz, prune stats).
    """
    if slab_columns is None or slab_columns >= matrix.ncols:
        product = spgemm(matrix, matrix)
        pruned, stats = prune_columns(product, options)
        return pruned, product.nnz, stats
    if slab_columns < 1:
        raise ValueError(f"slab_columns must be >= 1, got {slab_columns}")
    slabs = []
    nnz_expanded = 0
    totals = np.zeros(5, dtype=np.int64)
    for lo in range(0, matrix.ncols, slab_columns):
        hi = min(lo + slab_columns, matrix.ncols)
        product = spgemm(matrix, matrix.column_slab(lo, hi))
        nnz_expanded += product.nnz
        pruned, stats = prune_columns(product, options)
        totals += (
            stats.entries_in,
            stats.entries_out,
            stats.cutoff_dropped,
            stats.select_dropped,
            stats.recovered,
        )
        slabs.append(pruned)
    merged = hstack_csc(slabs)
    return (
        merged,
        nnz_expanded,
        PruneStats(*map(int, totals)),
    )


def markov_cluster(
    matrix: CSCMatrix,
    options: MclOptions | None = None,
    *,
    spgemm=spgemm_esc,
    expand_slab_columns: int | None = None,
    keep_final_matrix: bool = False,
    raise_on_no_convergence: bool = False,
    iterate_callback=None,
) -> MclResult:
    """Cluster the graph of ``matrix`` with the MCL algorithm.

    Parameters
    ----------
    spgemm:
        The SpGEMM kernel used for expansion; any of the five
        implementations in :mod:`repro.spgemm` / :mod:`repro.gpu` works
        (they are numerically interchangeable).
    expand_slab_columns:
        Fuse expansion with pruning over slabs of this many columns,
        bounding transient memory (sequential analogue of HipMCL phases).
    iterate_callback:
        ``callback(work, iteration)`` invoked with the pre-expansion matrix
        of every iteration — the hook the estimator experiments (Fig. 6)
        use to evaluate estimation schemes on a real MCL trajectory.
    """
    options = options or MclOptions()
    work = prepare_matrix(matrix, options)
    history: list[IterationStats] = []
    converged = False
    for it in range(1, options.max_iterations + 1):
        if iterate_callback is not None:
            iterate_callback(work, it)
        nnz_in = work.nnz
        flops = flops_of(work, work)
        expanded, nnz_expanded, prune_stats = expand(
            work, options, spgemm=spgemm, slab_columns=expand_slab_columns
        )
        work = inflate(normalize_columns(expanded), options.inflation)
        ch = chaos_of(work)
        history.append(
            IterationStats(
                index=it,
                nnz_in=nnz_in,
                flops=flops,
                nnz_expanded=nnz_expanded,
                cf=(flops / nnz_expanded) if nnz_expanded else 1.0,
                nnz_pruned=expanded.nnz,
                prune=prune_stats,
                chaos=ch,
            )
        )
        if ch < options.chaos_threshold:
            converged = True
            break
    if not converged and raise_on_no_convergence:
        raise ConvergenceError(
            f"MCL did not converge in {options.max_iterations} iterations "
            f"(chaos={history[-1].chaos:.3g})"
        )
    labels = connected_components(work)
    return MclResult(
        labels=labels,
        n_clusters=int(labels.max()) + 1 if len(labels) else 0,
        iterations=len(history),
        converged=converged,
        history=history,
        final_matrix=work if keep_final_matrix else None,
    )
