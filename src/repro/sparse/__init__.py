"""Sparse matrix formats and element-wise kernels (the CombBLAS substrate).

Two storage formats are provided:

* :class:`CSCMatrix` — compressed columns, HipMCL's working orientation;
* :class:`DCSCMatrix` — doubly compressed columns for hypersparse 2-D
  blocks (Buluç & Gilbert).

plus constructors, element-wise operations, and MatrixMarket I/O.  There
is no CSR class: the row-wise compiled kernels read the CSC arrays as
they are (paper §III-B; see :mod:`repro.perf.esc`).
"""

from .csc import CSCMatrix
from .dcsc import DCSCMatrix
from .construct import (
    block_of_csc,
    csc_from_triples,
    hstack_csc,
    identity_csc,
    random_csc,
)
from .ops import (
    add,
    add_self_loops,
    column_max,
    column_sum_of_squares,
    filter_threshold,
    hadamard_power,
    normalize_columns,
    symmetrize_max,
)
from .abcio import read_abc, write_abc, write_clusters_with_labels
from .matio import read_matrix_market, write_matrix_market
from .stats import (
    ColumnProfile,
    block_imbalance,
    hypersparsity,
    squaring_profile,
)

__all__ = [
    "CSCMatrix",
    "DCSCMatrix",
    "block_of_csc",
    "csc_from_triples",
    "hstack_csc",
    "identity_csc",
    "random_csc",
    "add",
    "add_self_loops",
    "column_max",
    "column_sum_of_squares",
    "filter_threshold",
    "hadamard_power",
    "normalize_columns",
    "symmetrize_max",
    "read_matrix_market",
    "write_matrix_market",
    "read_abc",
    "write_abc",
    "write_clusters_with_labels",
    "ColumnProfile",
    "block_imbalance",
    "hypersparsity",
    "squaring_profile",
]
