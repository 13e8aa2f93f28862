"""Distributed SpGEMM: 2-D distribution, Sparse SUMMA, pipelined variant,
and memory-driven phase planning."""

from .analysis import (
    CommEstimate,
    communication_2d,
    communication_3d,
    compare_decompositions,
)
from .distmatrix import DistributedCSC
from .engine3d import Grid3DModel
from .engine import SummaConfig, SummaResult, summa_multiply
from .phases import (
    PhasePlan,
    TransportDecision,
    plan_phases,
    plan_transport,
)

__all__ = [
    "DistributedCSC",
    "SummaConfig",
    "SummaResult",
    "summa_multiply",
    "PhasePlan",
    "plan_phases",
    "TransportDecision",
    "plan_transport",
    "CommEstimate",
    "communication_2d",
    "communication_3d",
    "compare_decompositions",
    "Grid3DModel",
]
