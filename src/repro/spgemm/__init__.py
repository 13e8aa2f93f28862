"""SpGEMM kernels, work metrics, and output-size estimation.

Four classical accumulator families are implemented against the CSC
formats (heap, hash table, dense SPA, expand–sort–compress), plus the
exact symbolic pass and Cohen's probabilistic estimator, and the hybrid
flops/cf selection recipe of the paper.
"""

from .esc import expansion_size, spgemm_esc
from .estimator import NnzEstimate, estimate_nnz, relative_error
from .hashspgemm import hash_operation_count, spgemm_hash
from .heap import heap_operation_count, spgemm_heap
from .hybrid import (
    DEFAULT_POLICY,
    KernelKind,
    SelectionPolicy,
    run_kernel,
    select_kernel,
)
from .metrics import (
    WorkProfile,
    compression_factor,
    flops,
    flops_per_column,
    flops_per_entry,
    work_profile,
)
from .spa import spa_operation_count, spgemm_spa
from .symbolic import (
    symbolic_nnz,
    symbolic_nnz_per_column,
    symbolic_operation_count,
)

__all__ = [
    "spgemm_esc",
    "expansion_size",
    "spgemm_heap",
    "heap_operation_count",
    "spgemm_hash",
    "hash_operation_count",
    "spgemm_spa",
    "spa_operation_count",
    "symbolic_nnz",
    "symbolic_nnz_per_column",
    "symbolic_operation_count",
    "estimate_nnz",
    "NnzEstimate",
    "relative_error",
    "flops",
    "flops_per_column",
    "flops_per_entry",
    "compression_factor",
    "work_profile",
    "WorkProfile",
    "KernelKind",
    "SelectionPolicy",
    "DEFAULT_POLICY",
    "select_kernel",
    "run_kernel",
]
