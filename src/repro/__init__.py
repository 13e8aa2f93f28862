"""repro — reproduction of "Optimizing High Performance Markov Clustering
for Pre-Exascale Architectures" (Selvitopi, Hussain, Azad, Buluç, IPDPS'20).

The package implements the paper's contribution (GPU-pipelined Sparse
SUMMA, binary merge, probabilistic memory estimation, hybrid SpGEMM kernel
selection inside HipMCL) together with every substrate it depends on: the
sparse-matrix formats, the SpGEMM kernels, a simulated MPI machine, and a
simulated GPU device layer.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured record.

The public API is re-exported here; the typical entry points are::

    from repro import markov_cluster, hipmcl, catalog

    net = catalog.load("archaea-xs", seed=0)
    result = markov_cluster(net.matrix)           # sequential reference
    dist = hipmcl(net.matrix, nodes=16)           # simulated distributed run
"""

__version__ = "1.0.0"

from .errors import (
    CheckpointError,
    CommunicatorError,
    ConvergenceError,
    EstimationError,
    FormatError,
    GridError,
    HostMemoryError,
    InjectedFault,
    InvariantViolation,
    ReproError,
    ShapeError,
)
from .resilience import FaultPlan, ResiliencePolicy
from .sparse import CSCMatrix, DCSCMatrix
from .mcl import (
    HipMCLConfig,
    HipMCLResult,
    MclOptions,
    MclResult,
    hipmcl,
    markov_cluster,
)
from .nets import catalog

__all__ = [
    "__version__",
    "ReproError",
    "ShapeError",
    "FormatError",
    "GridError",
    "CommunicatorError",
    "HostMemoryError",
    "ConvergenceError",
    "EstimationError",
    "CheckpointError",
    "InvariantViolation",
    "InjectedFault",
    "FaultPlan",
    "ResiliencePolicy",
    "CSCMatrix",
    "DCSCMatrix",
    "MclOptions",
    "MclResult",
    "markov_cluster",
    "HipMCLConfig",
    "HipMCLResult",
    "hipmcl",
    "catalog",
]
