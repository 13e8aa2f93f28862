"""Simulated MPI: process grid, communicator, collective cost accounting.

The algorithms run all ranks in one address space; this layer provides the
grid geometry (:class:`ProcessGrid`) and the synchronizing cost model
(:class:`VirtualComm`) so communication time, volume and idleness are
measured from the same α-β models throughout.
"""

from .comm import TrafficStats, VirtualComm
from .grid import (
    ProcessGrid,
    grid3d_shape,
    is_perfect_square,
    resolve_layers,
)

__all__ = [
    "ProcessGrid",
    "is_perfect_square",
    "grid3d_shape",
    "resolve_layers",
    "VirtualComm",
    "TrafficStats",
]
