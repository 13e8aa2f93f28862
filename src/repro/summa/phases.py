"""Memory-driven phase planning (paper §II and §V) and the stage window.

HipMCL expands-and-prunes in ``h`` phases when the *unpruned* product would
not fit in aggregate memory; the phase count comes from an estimate of
``nnz(A·B)`` — exact symbolic SpGEMM in original HipMCL, the probabilistic
Cohen estimator in the optimized one.  Under- and over-estimation shift
``h`` exactly as §VII-D discusses: underestimation risks out-of-memory
(compensated by handing the planner a deflated budget), overestimation
just adds phases.

The same budget bounds the static schedule's double buffer
(``schedule="static"``): posting the stage-(k+1) broadcasts while stage k
computes holds one extra stage of A-blocks and B-slabs per rank, so
:func:`overlap_window` only grants the second in-flight stage when the
budget has room for it — otherwise the schedule degrades to the
synchronous single-buffer path rather than bust the estimator's plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..merge.lists import BYTES_PER_TRIPLE
from ..merge.spkadd import (
    SPKADD_MIN_ELEMENTS,
    STRATEGY_LADDER,
    strategy_peak_bytes,
)


@dataclass(frozen=True)
class PhasePlan:
    """The planner's decision for one expansion."""

    phases: int
    estimated_nnz: float
    bytes_per_process: float
    budget_bytes: int


def plan_phases(
    estimated_nnz: float,
    nprocs: int,
    budget_bytes: int,
    *,
    safety_factor: float = 1.0,
    max_phases: int = 64,
    replication: int = 1,
) -> PhasePlan:
    """Choose the phase count for an expansion of ``estimated_nnz`` output
    elements over ``nprocs`` processes with ``budget_bytes`` each.

    ``safety_factor > 1`` deflates the budget — the §VII-D compensation
    for possible underestimation by the probabilistic scheme.

    ``replication`` is the split-3D layer count ``c``: before the
    per-fiber combine, each output element exists as up to ``c`` partial
    triples across the fiber, so the transient footprint the budget must
    absorb is ``c``-fold.  The 2D grid passes 1 (no replication).
    """
    if estimated_nnz < 0:
        raise ValueError(f"estimated_nnz must be >= 0: {estimated_nnz}")
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1: {nprocs}")
    if budget_bytes <= 0:
        raise ValueError(f"budget_bytes must be positive: {budget_bytes}")
    if safety_factor < 1.0:
        raise ValueError(f"safety_factor must be >= 1: {safety_factor}")
    if replication < 1:
        raise ValueError(f"replication must be >= 1: {replication}")
    per_process = estimated_nnz * BYTES_PER_TRIPLE * replication / nprocs
    effective = budget_bytes / safety_factor
    phases = max(1, math.ceil(per_process / effective))
    return PhasePlan(
        phases=min(phases, max_phases),
        estimated_nnz=estimated_nnz,
        bytes_per_process=per_process,
        budget_bytes=budget_bytes,
    )


#: Per-message framing bytes of one point-to-point transport payload
#: (header describing the sent row support).
P2P_HEADER_BYTES = 8

#: Bytes per sparse element a point-to-point payload carries (value +
#: row index, the slab rows tailored to the receiver's column support).
P2P_BYTES_PER_NNZ = 16


@dataclass(frozen=True)
class TransportDecision:
    """One stage's broadcast-vs-point-to-point pricing (pure data)."""

    choice: str  # "broadcast" | "p2p"
    bcast_seconds: float
    p2p_seconds: float
    bcast_bytes: int
    p2p_payload_bytes: tuple[int, ...]

    @property
    def p2p_bytes(self) -> int:
        return sum(self.p2p_payload_bytes)


def plan_transport(
    spec,
    group_bytes: int,
    per_receiver_bytes,
    group_size: int,
    *,
    mode: str = "hybrid",
) -> TransportDecision:
    """Price one stage slab's delivery and pick the cheaper transport.

    ``group_bytes`` is the aggregated slab footprint a bulk broadcast
    would push down the ``group_size``-member binomial tree;
    ``per_receiver_bytes`` the tailored payloads (only the column support
    each receiving block actually needs, from the Cohen estimator's
    per-column structure) a root would instead send point-to-point, one
    message per receiver, serialized through its injection port.

    ``mode`` forces the answer for ``"broadcast"``/``"p2p"``; ``"hybrid"``
    compares the α-β prices.  Pure function of its arguments — no comm or
    clock state enters — so transport accounting is identical across
    every execution cell of the same simulation config.
    """
    payloads = tuple(int(b) for b in per_receiver_bytes)
    bcast_s = spec.bcast_time(group_bytes, group_size)
    p2p_s = sum(spec.p2p_time(b) for b in payloads)
    if mode == "broadcast":
        choice = "broadcast"
    elif mode == "p2p":
        choice = "p2p"
    elif mode == "hybrid":
        choice = "p2p" if p2p_s < bcast_s else "broadcast"
    else:
        raise ValueError(
            f"unknown transport mode {mode!r}; "
            "options: ['hybrid', 'broadcast', 'p2p']"
        )
    return TransportDecision(
        choice=choice,
        bcast_seconds=bcast_s,
        p2p_seconds=p2p_s,
        bcast_bytes=int(group_bytes),
        p2p_payload_bytes=payloads,
    )


#: In-flight stage cap of the static schedule: the current stage plus
#: one posted stage (double buffering).  Deeper windows buy nothing —
#: stages are consumed strictly in order.
MAX_OVERLAP_WINDOW = 2


def overlap_window(stage_input_bytes: int, budget_bytes: int | None) -> int:
    """Stages the static schedule may hold in flight at once.

    ``stage_input_bytes`` is a per-rank upper bound on one stage's input
    footprint (A block + B phase slab); each in-flight stage holds one
    such set resident.  With no budget the full double buffer is granted;
    with a budget the window shrinks so ``window * stage_input_bytes``
    stays within it (never below 1 — the synchronous schedule needs one
    stage resident regardless, and the §V phase planner is the layer
    responsible for fitting *that*).  A window of 1 degrades
    ``schedule="static"`` to the synchronous broadcasts.
    """
    if budget_bytes is None or stage_input_bytes <= 0:
        return MAX_OVERLAP_WINDOW
    return max(
        1, min(MAX_OVERLAP_WINDOW, int(budget_bytes // stage_input_bytes))
    )


def plan_merge_strategy(
    total_elements: int,
    shape,
    *,
    budget_bytes: int | None = None,
    rung: int = 0,
) -> str:
    """Pick the SpKAdd strategy label one physical merge is planned under.

    Below ``SPKADD_MIN_ELEMENTS`` the label is ``serial``.  Otherwise
    planning starts at the top of
    :data:`~repro.merge.spkadd.STRATEGY_LADDER` (hash) and walks down past
    any strategy whose :func:`~repro.merge.spkadd.strategy_peak_bytes`
    busts ``budget_bytes`` (mirroring kernel demotion); ``rung`` — the
    recovery ladder fed by injected merge-memory overruns — only ever
    pushes the start further down.  The decision is a pure function of
    these arguments: no worker count or executor state enters,
    so strategy accounting is identical across every execution cell.
    """
    if total_elements < SPKADD_MIN_ELEMENTS:
        return "serial"
    start = min(max(0, int(rung)), len(STRATEGY_LADDER) - 1)
    for strategy in STRATEGY_LADDER[start:]:
        if (
            budget_bytes is None
            or strategy_peak_bytes(strategy, total_elements, shape)
            <= budget_bytes
        ):
            return strategy
    return STRATEGY_LADDER[-1]
