"""SpGEMM kernels, work metrics, and output-size estimation.

Three accumulator families are implemented against the CSC formats:
expand–sort–compress (the one every run multiplies with) and the paper's
two CPU kernels, heap and hash table (independent oracles for it).  Plus
the exact symbolic count, Cohen's probabilistic estimator, the operation
counts the machine model prices, and the hybrid flops/cf selection
recipe of the paper.  The GPU libraries are modelled by cost only.
"""

from .esc import expansion_size, spgemm_esc
from .estimator import NnzEstimate, estimate_nnz, relative_error
from .hashspgemm import hash_operation_count, spgemm_hash
from .heap import heap_operation_count, spgemm_heap
from .hybrid import (
    DEFAULT_POLICY,
    KernelKind,
    SelectionPolicy,
    select_kernel,
)
from .metrics import (
    WorkProfile,
    flops,
    flops_per_column,
    flops_per_entry,
    work_profile,
)
from .symbolic import symbolic_nnz

__all__ = [
    "spgemm_esc",
    "expansion_size",
    "spgemm_heap",
    "heap_operation_count",
    "spgemm_hash",
    "hash_operation_count",
    "symbolic_nnz",
    "estimate_nnz",
    "NnzEstimate",
    "relative_error",
    "flops",
    "flops_per_column",
    "flops_per_entry",
    "work_profile",
    "WorkProfile",
    "KernelKind",
    "SelectionPolicy",
    "DEFAULT_POLICY",
    "select_kernel",
]
