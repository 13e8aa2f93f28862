"""Communication analysis: 2-D Sparse SUMMA vs 3-D (layered) SpGEMM.

The paper touches 3-D algorithms twice without implementing them:

* §II — "alternative algorithms with better bounds are known [8], but
  they require a 3D data distribution ... the cost of redistributing the
  data for 3D SpGEMM is unlikely to be amortized in the sparse case";
* §VII-E — "The GPU idle times can be reduced further, especially at
  large concurrencies, via adapting 3D SpGEMM [9]".

This module quantifies both statements under the same α-β machine model
the simulator charges, using the split-3-D structure of Azad et al.
(SISC'16): ``P = c · q₃²`` processes arranged as ``c`` layers of
``q₃ × q₃`` grids; each layer runs Sparse SUMMA on a 1/c slice of the
inner dimension, and the layers' partial C contributions are combined by
an all-to-all + reduction along the fiber.

The 2-D model is *validated against the engine*: a test checks it
reproduces the broadcast seconds a real ``summa_multiply`` charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import GridError
from ..machine.spec import MachineSpec, SUMMIT_LIKE
from ..merge.lists import BYTES_PER_TRIPLE
from ..mpi.grid import is_perfect_square


@dataclass(frozen=True)
class CommEstimate:
    """Per-process communication estimate for one distributed SpGEMM."""

    scheme: str  # "2d" or "3d(c=...)"
    bcast_seconds: float
    reduction_seconds: float  # fiber combine (3-D only)
    redistribution_seconds: float  # one-time 2-D → 3-D data movement
    messages: int

    @property
    def total_seconds(self) -> float:
        return (
            self.bcast_seconds
            + self.reduction_seconds
            + self.redistribution_seconds
        )


def _block_bytes(nnz: int, p: int) -> int:
    """DCSC-ish bytes of one 2-D block of a matrix with ``nnz`` nonzeros
    spread over ``p`` processes (16 B per stored entry dominates)."""
    return max(1, 16 * nnz // p)


def communication_2d(
    nnz_a: int,
    nnz_b: int,
    processes: int,
    *,
    spec: MachineSpec = SUMMIT_LIKE,
    phases: int = 1,
) -> CommEstimate:
    """Per-process communication of one 2-D Sparse SUMMA multiply.

    Every process participates in one A-broadcast (row) and one
    B-broadcast (column) per stage; A is re-broadcast every phase (§III).
    """
    if not is_perfect_square(processes):
        raise GridError(f"2-D SUMMA needs a square process count: {processes}")
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    q = math.isqrt(processes)
    a_bytes = _block_bytes(nnz_a, processes)
    b_bytes = _block_bytes(nnz_b, processes) // phases
    per_stage = spec.bcast_time(a_bytes, q) + spec.bcast_time(b_bytes, q)
    return CommEstimate(
        scheme="2d",
        bcast_seconds=phases * q * per_stage,
        reduction_seconds=0.0,
        redistribution_seconds=0.0,
        messages=phases * q * 2,
    )


def communication_3d(
    nnz_a: int,
    nnz_b: int,
    nnz_c: int,
    processes: int,
    layers: int,
    *,
    spec: MachineSpec = SUMMIT_LIKE,
    include_redistribution: bool = True,
) -> CommEstimate:
    """Per-process communication of a split-3-D SpGEMM with ``layers``
    layers.

    Each layer of ``q₃ × q₃`` processes runs SUMMA over its 1/c slice of
    the inner dimension (block sizes match the 2-D ones, but there are
    only q₃ stages); partial outputs are combined along the fiber with an
    all-to-all carrying each process's share of the unmerged triples.  The
    optional redistribution term charges moving the 2-D-resident operands
    into the 3-D layout once (the §II caveat).
    """
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    if processes % layers:
        raise GridError(
            f"{processes} processes do not split into {layers} layers"
        )
    per_layer = processes // layers
    if not is_perfect_square(per_layer):
        raise GridError(
            f"layer size {per_layer} is not a perfect square"
        )
    q3 = math.isqrt(per_layer)
    a_bytes = _block_bytes(nnz_a, processes)
    b_bytes = _block_bytes(nnz_b, processes)
    per_stage = spec.bcast_time(a_bytes, q3) + spec.bcast_time(b_bytes, q3)
    bcast = q3 * per_stage
    # Fiber combine: each process exchanges its ~nnz_c/P share of
    # unmerged partial triples with the other layers.
    fiber_pair_bytes = BYTES_PER_TRIPLE * max(1, nnz_c // processes)
    reduction = spec.alltoall_time(fiber_pair_bytes, layers)
    redistribution = 0.0
    if include_redistribution and layers > 1:
        # Moving both operands from the 2-D to the 3-D layout: each
        # process ships its entire local share once along the fiber.
        redistribution = spec.alltoall_time(
            16 * max(1, (nnz_a + nnz_b) // processes), layers
        )
    return CommEstimate(
        scheme=f"3d(c={layers})",
        bcast_seconds=bcast,
        reduction_seconds=reduction,
        redistribution_seconds=redistribution,
        messages=q3 * 2 + 2 * (layers - 1),
    )


def compare_decompositions(
    nnz_a: int,
    nnz_c: int,
    processes: int,
    layers: int = 4,
    *,
    spec: MachineSpec = SUMMIT_LIKE,
    multiplies_to_amortize: int = 1,
) -> dict[str, float]:
    """Head-to-head of 2-D vs 3-D for squaring a matrix (``B = A``).

    ``multiplies_to_amortize`` spreads the one-time redistribution over
    that many multiplies (an MCL run performs one expansion per iteration,
    but the iterate *changes* every time, so HipMCL would redistribute per
    iteration — the §II argument).
    """
    if multiplies_to_amortize < 1:
        raise ValueError("multiplies_to_amortize must be >= 1")
    two_d = communication_2d(nnz_a, nnz_a, processes, spec=spec)
    three_d = communication_3d(
        nnz_a, nnz_a, nnz_c, processes, layers, spec=spec
    )
    amortized = (
        three_d.bcast_seconds
        + three_d.reduction_seconds
        + three_d.redistribution_seconds / multiplies_to_amortize
    )
    return {
        "2d_total": two_d.total_seconds,
        "3d_bcast": three_d.bcast_seconds,
        "3d_reduction": three_d.reduction_seconds,
        "3d_redistribution": three_d.redistribution_seconds,
        "3d_amortized_total": amortized,
        "bcast_reduction_factor": (
            two_d.bcast_seconds / three_d.bcast_seconds
            if three_d.bcast_seconds
            else float("inf")
        ),
        "worth_it": amortized < two_d.total_seconds,
    }
