"""The distributed HipMCL driver (original and optimized configurations).

One driver runs the full MCL loop on the simulated machine:

    estimate memory → plan phases → phased expansion (Sparse SUMMA,
    fused with pruning) → inflation → convergence check

A :class:`HipMCLConfig` selects between the paper's *original* HipMCL
(heap kernel, CPU only, bulk-synchronous SUMMA, multiway merge, exact
symbolic estimation — the left bar of Fig. 1) and the *optimized* HipMCL
(hybrid GPU kernels, pipelined SUMMA, binary merge, probabilistic
estimation — the right bar), plus everything in between for the ablations.

All numerics are real: the driver produces the same clusters as
:func:`repro.mcl.reference.markov_cluster` up to floating-point summation
order (the paper makes the same caveat for HipMCL vs mcl).  All times are
modeled by :class:`~repro.machine.spec.MachineSpec` applied to exactly
counted work, accumulated on per-rank CPU/GPU timelines.
"""

from __future__ import annotations

import functools
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, EstimationError, GridError, InjectedFault
from ..machine.spec import SUMMIT_LIKE, MachineSpec
from ..mpi.comm import VirtualComm
from ..mpi.grid import ProcessGrid, is_perfect_square
from ..perf.esc import sort_rows
from ..resilience.faults import as_injector
from ..resilience.policy import ResiliencePolicy
from ..resilience.validators import InvariantChecker
from ..sparse import CSCMatrix, hstack_csc, normalize_columns
from ..sparse import _compressed as _c
from ..spgemm.estimator import estimate_nnz
from ..spgemm.metrics import flops
from ..spgemm.symbolic import symbolic_nnz
from ..summa.distmatrix import DistributedCSC
from ..summa.engine import SummaConfig, run_tasks, summa_multiply
from ..summa.engine3d import Grid3DModel
from ..trace import current_tracer, maybe_span
from ..summa.phases import plan_phases
from .chaos import chaos as chaos_of
from .components import connected_components
from .distributed_prune import distributed_prune_block_column
from .inflation import inflate
from .options import MclOptions
from .prune import prune_columns
from .reference import prepare_matrix

#: Stage account names, in Fig. 1's legend order.
STAGE_ACCOUNTS = (
    "local_spgemm",
    "mem_estimation",
    "summa_bcast",
    "merge",
    "prune",
    "other",
)


@dataclass(frozen=True)
class HipMCLConfig:
    """One distributed run's machine and algorithm configuration."""

    nodes: int = 16
    spec: MachineSpec = SUMMIT_LIKE
    kernel: str = "hybrid"
    merge: str = "binary"
    pipelined: bool = True
    use_gpu: bool = True
    #: "symbolic" (exact two-pass, original HipMCL), "probabilistic"
    #: (Cohen keys), "hybrid" (probabilistic unless last iteration's cf
    #: fell below ``estimator_cf_threshold`` — §VII-D's recipe), or
    #: "probabilistic-gpu" (the paper's stated future work: port the key
    #: propagation to the GPU and pipeline it like the SUMMA multiplies).
    estimator: str = "probabilistic"
    estimator_keys: int = 5
    estimator_cf_threshold: float = 3.0
    #: §VII-D compensation: deflate the budget against underestimation.
    estimator_safety: float = 1.1
    #: Thread-based node management (one process per node commanding all
    #: GPUs) vs process-based (one process per GPU) — §III-A / Fig. 5.
    threaded_node: bool = True
    gpus_per_node: int = 6
    memory_budget_bytes: int = 8 * 2**20
    seed: int = 0
    #: SUMMA broadcast schedule: "sync" (blocking collectives on the
    #: member CPUs) or "static" (the flat stage sequence with async
    #: double-buffered broadcasts on link clocks and the per-block-column
    #: incremental prune).  A *simulation-semantics* knob — it changes
    #: the modeled timings by design and therefore enters the checkpoint
    #: fingerprint, unlike the wall-clock workers knob.
    schedule: str = "sync"
    #: Process-grid shape the simulated clocks/traffic are modeled on:
    #: "2d" (the √P × √P SUMMA grid) or "3d" (the split-3D grid — the
    #: P ranks reinterpreted as ``layers`` copies of a smaller 2-D grid,
    #: with per-layer broadcast trees, a 2D→3D redistribution and a
    #: per-fiber combine charged around every multiply).  Like
    #: ``schedule`` this is a *simulation-semantics* knob: it changes
    #: modeled timings by design (and enters the checkpoint
    #: fingerprint) while the numerics stay bit-identical to 2-D.
    grid: str = "2d"
    #: Replication factor ``c`` of the 3D grid; 0 means auto (the
    #: largest ``c = r²`` with ``r | √P`` and ``r² ≤ √P``).  Must
    #: satisfy ``P = c · q₃²`` — validated at construction.
    layers: int = 0
    #: 3D B-side transport: "hybrid" (per-stage broadcast-vs-p2p pricing
    #: from the sparsity structure), "broadcast", or "p2p".
    transport: str = "hybrid"
    #: Recovery behavior (retry ladders, degradation, validators); ``None``
    #: runs without any recovery armed — exactly the pre-resilience
    #: driver.  Passing ``faults=`` to :func:`hipmcl` without a policy
    #: arms the default :class:`~repro.resilience.policy.ResiliencePolicy`.
    resilience: ResiliencePolicy | None = None

    def __post_init__(self):
        if self.estimator not in (
            "symbolic", "probabilistic", "hybrid", "probabilistic-gpu"
        ):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        # The multiply's knobs (kernel, merge, schedule) are validated
        # where they are defined.
        self.summa_config()
        if self.use_gpu and self.spec.gpus_per_node == 0:
            raise ValueError(
                "use_gpu=True on a machine without GPUs "
                f"(spec.gpus_per_node=0, e.g. CORI_KNL_LIKE)"
            )
        p = self.processes
        if not is_perfect_square(p):
            raise GridError(
                f"{self.nodes} nodes in "
                f"{'thread' if self.threaded_node else 'process'}-based mode "
                f"yield {p} MPI processes, which is not a perfect square "
                "(HipMCL requires one)"
            )
        from ..mpi.grid import GRID_CHOICES, grid3d_shape

        if self.grid not in GRID_CHOICES:
            raise GridError(
                f"unknown grid {self.grid!r}; options: {list(GRID_CHOICES)}"
            )
        if self.transport not in ("hybrid", "broadcast", "p2p"):
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                "options: ['hybrid', 'broadcast', 'p2p']"
            )
        if self.layers < 0:
            raise GridError(f"layers must be >= 0, got {self.layers}")
        if self.grid == "2d":
            if self.layers not in (0, 1):
                raise GridError(
                    f"layers={self.layers} requires grid='3d' "
                    "(the 2-D grid has exactly one layer)"
                )
        else:
            # Validates P = c · q₃² (raises GridError otherwise).
            grid3d_shape(p, self.layers)

    @property
    def processes(self) -> int:
        """MPI process count implied by the node-management mode."""
        if self.threaded_node:
            return self.nodes
        return self.nodes * self.gpus_per_node

    @property
    def resolved_layers(self) -> int:
        """The replication factor ``c`` actually used (1 on the 2-D grid,
        auto-resolution applied on the 3D one)."""
        if self.grid == "2d":
            return 1
        from ..mpi.grid import grid3d_shape

        return grid3d_shape(self.processes, self.layers)[0]

    @property
    def threads_per_process(self) -> int:
        if self.threaded_node:
            return self.spec.cores_per_node
        per_proc = self.spec.cores_per_node // self.gpus_per_node
        # Slim processes lose part of their cores to MPI service and
        # duplicated ghost data (spec.multiprocess_thread_derate).
        return max(1, int(per_proc * self.spec.multiprocess_thread_derate))

    @property
    def gpus_per_process(self) -> int:
        return self.gpus_per_node if self.threaded_node else 1

    @classmethod
    def original(cls, nodes: int, **kwargs) -> "HipMCLConfig":
        """Original HipMCL: heap kernel, CPU, synchronous, multiway merge,
        exact symbolic estimation."""
        return cls(
            nodes=nodes,
            kernel="heap",
            merge="multiway",
            pipelined=False,
            use_gpu=False,
            estimator="symbolic",
            **kwargs,
        )

    @classmethod
    def optimized(
        cls, nodes: int, *, overlap: bool = True, **kwargs
    ) -> "HipMCLConfig":
        """This paper's HipMCL; ``overlap=False`` gives Fig. 1's middle
        bar (new kernels, no pipelining)."""
        return cls(
            nodes=nodes,
            kernel="hybrid",
            merge="binary" if overlap else "multiway",
            pipelined=overlap,
            use_gpu=True,
            estimator="hybrid",
            **kwargs,
        )

    @classmethod
    def optimized_cpu(cls, nodes: int, **kwargs) -> "HipMCLConfig":
        """§VI's configuration for systems without GPUs: the hash SpGEMM
        replaces the heap, plus the estimator and merge improvements."""
        return cls(
            nodes=nodes,
            kernel="hash",
            merge="binary",
            pipelined=False,  # no device to overlap against
            use_gpu=False,
            estimator="hybrid",
            **kwargs,
        )

    @classmethod
    def future_gpu_estimation(cls, nodes: int, **kwargs) -> "HipMCLConfig":
        """The paper's stated future work (§VII-E): optimized HipMCL with
        the memory estimation also ported to the GPU."""
        return cls(
            nodes=nodes,
            kernel="hybrid",
            merge="binary",
            pipelined=True,
            use_gpu=True,
            estimator="probabilistic-gpu",
            **kwargs,
        )

    def summa_config(self) -> SummaConfig:
        return SummaConfig(
            spec=self.spec,
            kernel=self.kernel,
            merge=self.merge,
            pipelined=self.pipelined,
            use_gpu=self.use_gpu,
            gpus_per_process=self.gpus_per_process,
            threads=self.threads_per_process,
            threaded_node=self.threaded_node,
            schedule=self.schedule,
        )


@dataclass(frozen=True)
class HipMCLIteration:
    """Per-iteration record of one distributed MCL iteration."""

    index: int
    nnz_in: int
    flops: int
    estimated_nnz: float
    exact_nnz: int
    estimator_used: str
    estimation_error_pct: float
    phases: int
    nnz_pruned: int
    cf: float
    chaos: float
    merge_peak_event_elements: int
    merge_peak_resident_elements: int
    stage_seconds: dict[str, float]


@dataclass
class HipMCLResult:
    """Outcome of one simulated distributed run."""

    labels: np.ndarray
    n_clusters: int
    iterations: int
    converged: bool
    elapsed_seconds: float  # simulated makespan
    stage_means: dict[str, float]
    cpu_idle_seconds: float
    gpu_idle_seconds: float
    kernel_selections: dict[str, int]
    gpu_fallbacks: int
    bytes_communicated: int
    history: list[HipMCLIteration] = field(default_factory=list)
    wall_seconds: float = 0.0  # real time the simulation took
    #: Idle within each resource's active window (Table V semantics).
    cpu_window_idle_seconds: float = 0.0
    gpu_window_idle_seconds: float = 0.0
    #: Makespan of the expansion sections alone (Table II's "overall",
    #: including the fused pruning of the phase callbacks).
    expansion_seconds: float = 0.0
    #: Mean per-rank idle seconds *inside* the expansion sections — the
    #: CPU/GPU idle times of Table V (the CPU waits while the GPU
    #: multiplies; the GPU waits while the CPU broadcasts and merges).
    expansion_cpu_idle_seconds: float = 0.0
    expansion_gpu_idle_seconds: float = 0.0
    #: Largest transient per-rank footprint any expansion phase needed —
    #: the quantity the §V phase planner bounds against the budget.
    peak_rank_resident_bytes: int = 0
    #: Iterations whose actual footprint exceeded the configured budget
    #: (§VII-D: underestimation "can lead processes to go out of memory").
    budget_violations: int = 0
    # -- resilience accounting (all zero without faults/policy) ----------
    #: Failed-and-retried collective attempts, their charged seconds, and
    #: injected straggler delays (from ``TrafficStats``).
    comm_retries: int = 0
    retry_seconds: float = 0.0
    straggler_events: int = 0
    #: Probabilistic-estimation passes that backed off to the symbolic one.
    estimator_fallbacks: int = 0
    #: Expansions re-run with doubled phases after a budget overrun.
    phase_split_retries: int = 0
    #: CPU-hash -> heap kernel demotions (GPU demotions are
    #: ``gpu_fallbacks``).
    kernel_demotions: int = 0
    #: Injected merge-memory overruns absorbed by the SpKAdd strategy
    #: ladder (hash -> tree -> serial).
    merge_demotions: int = 0
    #: Per-site injection counts from the fault injector, if any.
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: Messages from the runtime invariant validators (empty when off/clean).
    invariant_violations: list[str] = field(default_factory=list)
    #: 0 for a fresh run; the checkpoint's iteration when resumed.
    resumed_from_iteration: int = 0
    checkpoints_written: int = 0
    # -- static pipeline schedule evidence (zero under schedule="sync") --
    #: Simulated seconds the expansions' async broadcasts spent in flight
    #: while the rank clocks advanced through multiplies and merges.
    bcast_overlap_seconds: float = 0.0
    #: Simulated seconds the per-column prunes ran while the next phases'
    #: broadcasts were still on the links.
    prune_bcast_overlap_seconds: float = 0.0
    #: Total seconds the broadcast links carried traffic.
    link_busy_seconds: float = 0.0
    # -- split-3D grid evidence (inert defaults under grid="2d") ---------
    #: The grid shape the run's clocks were modeled on ("2d" | "3d").
    grid: str = "2d"
    #: Replication factor ``c`` the 3D model resolved (1 under 2-D).
    layers: int = 1
    #: Hybrid-transport selections across the run's expansions
    #: ("broadcast"/"p2p" counts per column-group delivery).
    transport_selections: dict[str, int] = field(default_factory=dict)
    #: p2p → broadcast transport demotions the fault ladder performed.
    transport_demotions: int = 0


def _grouped_stage_seconds(comm: VirtualComm) -> dict[str, float]:
    """Mean per-rank busy seconds folded into Fig. 1's stage buckets."""
    means = comm.account_means()
    out = {k: 0.0 for k in STAGE_ACCOUNTS}
    for account, seconds in means.items():
        # Transfers count as SpGEMM time, as in Table II ("including data
        # transfers, pre/postprocessing").
        if account in ("local_spgemm", "h2d", "d2h"):
            out["local_spgemm"] += seconds
        elif account in ("mem_estimation", "est_bcast"):
            out["mem_estimation"] += seconds
        elif account in ("summa_bcast", "summa_p2p"):
            # The 3D hybrid transport's tailored p2p sends replace
            # broadcasts, so they fold into the same Fig. 1 bucket.
            out["summa_bcast"] += seconds
        elif account in ("merge",):
            out["merge"] += seconds
        elif account in ("prune", "topk_exchange"):
            out["prune"] += seconds
        else:  # h2d, inflation, allreduce, exchange, ...
            out["other"] += seconds
    return out


def _charge_estimation(
    comm: VirtualComm,
    grid: ProcessGrid,
    dist_a: DistributedCSC,
    config: HipMCLConfig,
    scheme: str,
    total_flops: int,
    total_nnz: int,
    model,
) -> None:
    """Charge the memory-estimation stage.

    Both schemes mimic one sweep of the Sparse SUMMA communication
    structure (§VII-E: estimation "involves successive communication and
    computational stages, as it mimics the execution of Sparse SUMMA");
    they differ in payload (pattern vs r keys) and in compute (O(flops) vs
    O(r · nnz)).  The broadcasts ride the grid ``model``'s trees, like
    the expansion's — under the split-3D grid fewer, fatter trees over
    smaller groups, exactly like the stage broadcasts they mimic.
    """
    spec = config.spec
    q = grid.q
    keys = config.estimator_keys
    symbolic = scheme == "symbolic"
    on_gpu = scheme == "probabilistic-gpu"

    def payload(i: int, j: int, axis: int) -> int:
        """Block (i, j)'s pattern (indices only), or its keys along
        ``axis`` (0: rows, 1: columns)."""
        if symbolic:
            return dist_a.block_storage_bytes(i, j) // 2
        blk = dist_a.block(i, j)
        return 8 * keys * blk.shape[axis] // q + 8 * blk.nnz // 8

    for k in range(q):
        # Estimation mimics the full SUMMA communication structure: the
        # A-side pattern/keys travel along rows, the B-side along columns,
        # and each stage's propagated minima are combined — this is why
        # §VII-E finds estimation the most serious scalability bottleneck
        # (the α·lg q terms survive when the per-rank compute shrinks).
        lay = model.stage_layer(k)
        for I in range(model.q3):
            comm.broadcast(
                model.layer_row_ranks(lay, I),
                sum(payload(i, k, 1) for i in model.group_rows(I)),
                "est_bcast",
            )
        for J in range(model.q3):
            comm.broadcast(
                model.layer_col_ranks(lay, J),
                sum(payload(k, j, 0) for j in model.group_cols(J)),
                "est_bcast",
            )
        if on_gpu:
            # Future-work variant: each stage's key propagation runs on
            # the device, pipelined against the next stage's broadcasts —
            # the same overlap structure as the Pipelined Sparse SUMMA.
            per_rank_stage = 2.0 * keys * total_nnz / grid.size / q
            seconds = per_rank_stage / (
                spec.gpu_estimator_ops_per_device * config.gpus_per_process
            )
            for clock in comm.clocks:
                clock.gpu.schedule(
                    clock.cpu.free_at, seconds, "mem_estimation"
                )
    # Combine the propagated minimum keys (symbolic: the per-column
    # counts) along each layer's column trees — once per estimation pass;
    # under the split-3D grid each layer carries its 1/c share.
    for J in range(model.q3):
        width = 0
        for j in model.group_cols(J):
            c_lo, c_hi = grid.block_bounds(dist_a.global_shape[1], j)
            width += c_hi - c_lo
        for lay in range(model.layers):
            comm.allreduce(
                model.layer_col_ranks(lay, J),
                8 * (1 if symbolic else keys) * width // model.layers,
                "est_bcast",
            )
    if not on_gpu:
        if symbolic:
            seconds = spec.symbolic_time(
                total_flops / grid.size, config.threads_per_process
            )
        else:
            seconds = spec.estimator_time(
                2.0 * keys * total_nnz / grid.size,
                config.threads_per_process,
            )
        for clock in comm.clocks:
            clock.cpu.schedule(clock.cpu.free_at, seconds, "mem_estimation")
    comm.barrier()


def _assemble_block_column(cols: list[CSCMatrix]) -> CSCMatrix:
    """Stack the q row blocks of a block column, top to bottom, into one
    slab in global rows: the inverse of :func:`_split_block_column`.

    An O(nnz) gather, no sort: a column of the slab is the blocks'
    columns end to end, each entry in the order it has in its block.  The
    slab is canonical when every block is, which holds for the blocks
    the numeric pass returns; the prune's recovery path sorts the
    unsorted blocks it receives before assembling them.
    """
    lens = np.array([np.diff(blk.indptr) for blk in cols])
    width = cols[0].ncols
    indptr = np.zeros(width + 1, dtype=_c.INDEX_DTYPE)
    np.cumsum(lens.sum(axis=0), out=indptr[1:])
    # Where each block's share of a column starts in the slab.
    starts = indptr[:-1] + np.cumsum(lens, axis=0) - lens
    indices = np.empty(indptr[-1], dtype=_c.INDEX_DTYPE)
    data = np.empty(indptr[-1], dtype=_c.VALUE_DTYPE)
    r_lo = 0
    for blk, blk_lens, start in zip(cols, lens, starts):
        at = np.repeat(start - blk.indptr[:-1], blk_lens) + np.arange(blk.nnz)
        indices[at] = blk.indices + r_lo
        data[at] = blk.data
        r_lo += blk.nrows
    return CSCMatrix((r_lo, width), indptr, indices, data, check=False)


def _split_block_column(mat: CSCMatrix, grid: ProcessGrid) -> list[CSCMatrix]:
    """The q row blocks of a block-column slab ``mat`` in global rows:
    the inverse of :func:`_assemble_block_column`."""
    cols = _c.expand_major(mat.indptr, mat.ncols)
    out = []
    for i in range(grid.q):
        r_lo, r_hi = grid.block_bounds(mat.nrows, i)
        keep = (mat.indices >= r_lo) & (mat.indices < r_hi)
        out.append(
            CSCMatrix(
                (r_hi - r_lo, mat.ncols),
                _c.compress_major(cols[keep], mat.ncols),
                mat.indices[keep] - r_lo,
                mat.data[keep],
                check=False,
            )
        )
    return out


def prune_block_column(options, grid, iteration, cols, j):
    """Prune block column ``j`` of iteration ``iteration``'s expansion the
    moment the engine has finished it, inside the column's task (the
    numerics only: :meth:`_Run.charge_column_prune` charges the clocks).
    Bound per iteration with ``functools.partial``; a pool thread may run
    it concurrently with other columns, so it reads only its arguments.
    Returns the kept blocks canonical, as the engine's ``prune_column``
    contract asks: both branches sort, each exactly once."""
    with maybe_span("prune", "mcl", iteration=iteration, column=j) as psp:
        if options.recover_number != 0:
            # Recovery needs the full pre-cutoff column: assemble, prune,
            # split back.  Its column sums add in row order, so the
            # blocks (in merge order here) are sorted first, and the
            # blocks it splits off a canonical slab are canonical.
            pruned, _stats = prune_columns(
                _assemble_block_column([sort_rows(blk) for blk in cols]),
                options,
            )
            pruned_col = _split_block_column(pruned, grid)
        else:
            # Faithful §II protocol: local top-k candidates → exchanged
            # threshold → local filter.  Identical to the centralized
            # prune (validated in tests), and blind to the order of the
            # rows within a column, which it keeps: what survives is
            # sorted here.
            pruned_col = [
                sort_rows(blk)
                for blk in distributed_prune_block_column(cols, options)
            ]
        psp.set(
            nnz_in=sum(b.nnz for b in cols),
            nnz_out=sum(b.nnz for b in pruned_col),
        )
        return pruned_col


def inflate_block_column(cols, grid, exponent):
    """Inflate block column ``cols`` of the pruned product — the step's
    task, one per block column: the slab of the next iterate, and its q
    row blocks.  Normalization and inflation are column-wise, and a
    column's entries are in the slab in the order they have in the global
    matrix, so every column sum adds the same sequence."""
    slab = inflate(normalize_columns(_assemble_block_column(cols)), exponent)
    return slab, _split_block_column(slab, grid)


@dataclass
class _RunTotals:
    """The run's counters, declared once.

    They accumulate over the run's expansions, travel in a checkpoint's
    ``counters`` (:meth:`counters` / :meth:`from_counters`) and end as
    :class:`HipMCLResult` fields (:meth:`result_fields`).
    """

    kernel_selections: dict = field(default_factory=dict)
    gpu_fallbacks: int = 0
    expansion_seconds: float = 0.0
    #: Idle seconds inside the expansions, summed over the ranks.
    expansion_cpu_idle: float = 0.0
    expansion_gpu_idle: float = 0.0
    peak_rank_resident_bytes: int = 0
    budget_violations: int = 0
    estimator_fallbacks: int = 0
    phase_split_retries: int = 0
    kernel_demotions: int = 0
    merge_demotions: int = 0
    transport_selections: dict = field(default_factory=dict)
    transport_demotions: int = 0
    bcast_overlap_seconds: float = 0.0
    prune_bcast_overlap_seconds: float = 0.0

    @classmethod
    def from_counters(cls, counters: dict) -> "_RunTotals":
        """The totals a checkpoint's ``counters`` saved; a missing key
        keeps its default."""
        totals = cls()
        for name, default in vars(totals).items():
            value = counters.get(name, default)
            setattr(totals, name, type(default)(value))
        return totals

    def counters(self) -> dict:
        """The checkpoint's ``counters`` (JSON-ready, dicts copied)."""
        return {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(self).items()
        }

    def absorb(self, res) -> None:
        """Add one multiply's :class:`~repro.summa.engine.SummaResult`:
        every counter it shares by name, and its resident-bytes peak."""
        for name, total in vars(self).items():
            if not hasattr(res, name):
                continue
            if isinstance(total, dict):
                for k, v in getattr(res, name).items():
                    total[k] = total.get(k, 0) + v
            else:
                setattr(self, name, total + getattr(res, name))
        self.peak_rank_resident_bytes = max(
            self.peak_rank_resident_bytes, res.max_rank_resident_bytes
        )

    def result_fields(self, ranks: int) -> dict:
        """The :class:`HipMCLResult` fields: idle seconds as per-rank
        means, every other counter under its own name."""
        out = dict(vars(self))
        for unit in ("cpu", "gpu"):
            idle = out.pop(f"expansion_{unit}_idle")
            out[f"expansion_{unit}_idle_seconds"] = idle / ranks
        return out


@dataclass
class _Iteration:
    """One MCL iteration's state, as the driver's steps fill it in."""

    index: int
    #: The iterate: the iteration's input until :meth:`_Run.inflate`
    #: replaces it with the next one.
    work: CSCMatrix
    stage_before: dict
    dist_a: DistributedCSC
    flops: int
    estimated: float = 0.0
    scheme: str = ""
    phases: int = 1
    product: object = None  # the last expansion's SummaResult
    #: Unpruned nonzeros of the product.
    exact_nnz: int = 0


class _Run:
    """One driver run: the context every step reads, the run's counters
    and the state carried from one iteration to the next (and through a
    checkpoint).  The steps of an iteration are its methods."""

    def __init__(
        self, options, config, *, resume_from, faults, workers
    ):
        from ..parallel import get_executor
        from ..resilience.checkpoint import config_fingerprint, load_checkpoint

        self.options = options
        self.config = config
        self.grid = grid = ProcessGrid.for_processes(config.processes)
        self.executor = get_executor(workers)
        self.injector = injector = as_injector(faults)
        policy = config.resilience
        if policy is None and injector is not None:
            policy = ResiliencePolicy()
        self.policy = policy
        self.checker = (
            InvariantChecker(mode=policy.validate)
            if policy is not None and policy.validate != "off"
            else None
        )
        self.comm = VirtualComm(
            grid.size,
            config.spec,
            injector=injector,
            retry=policy.retry if policy is not None else None,
        )
        self.tracer = tracer = current_tracer()
        if tracer is not None and tracer.sim_clock is None:
            # From here on every span/metric carries the run's simulated
            # seconds alongside wall time (restored by the hipmcl wrapper).
            tracer.sim_clock = self.comm.elapsed
        self.summa_cfg = config.summa_config()
        # The degradation ladder is the only recovery for kernel-site
        # faults, so disarming it (policy.degrade_kernels=False) disables
        # those injection sites rather than crashing mid-expansion; the
        # same holds for the merge-overrun site and the SpKAdd ladder.
        self.summa_injector = (
            injector if policy is None or policy.degrade_kernels else None
        )
        self.merge_injector = (
            injector if policy is None or policy.degrade_merge else None
        )
        self.fingerprint = config_fingerprint(config, options)
        self.totals = _RunTotals()
        self.history: list[HipMCLIteration] = []
        self.prev_cf = math.inf  # first iteration: large cf → probabilistic
        self.elapsed_offset = 0.0
        self.checkpoints_written = 0
        #: The checkpoint's iterate and iteration (None and 0 when fresh).
        self.work, self.resumed_from = None, 0
        if resume_from is not None:
            ckpt = load_checkpoint(resume_from, self.fingerprint)
            self.work, self.resumed_from = ckpt.work, ckpt.iteration
            self.history = list(ckpt.history)
            self.prev_cf = ckpt.prev_cf
            self.elapsed_offset = ckpt.elapsed_seconds
            self.totals = _RunTotals.from_counters(ckpt.counters)
        # One grid charge model for the whole run: its transport counters
        # and the p2p → broadcast demotion rung persist across iterations.
        # The plain 2-D grid makes no transport choice (None): every slab
        # is broadcast and nothing is counted.  A resumed run continues on
        # the broadcast transport a failure demoted it to.
        transport = config.transport if config.grid == "3d" else None
        if transport is not None and self.totals.transport_demotions:
            transport = "broadcast"
        self.model = Grid3DModel(
            grid.q,
            config.resolved_layers,
            transport,
            demote_transport=(
                policy.demote_transport if policy is not None else True
            ),
        )

    # -- the steps of one iteration -----------------------------------------

    def estimate(self, step: _Iteration) -> None:
        """Memory requirement estimation (§V) and the phase plan."""
        config, policy, tracer = self.config, self.policy, self.tracer
        work, it = step.work, step.index

        def charge(scheme):
            _charge_estimation(
                self.comm, self.grid, step.dist_a, config, scheme,
                step.flops, work.nnz, model=self.model,
            )

        with maybe_span("estimate", "mcl", iteration=it) as est_sp:
            if config.estimator in ("symbolic", "probabilistic",
                                    "probabilistic-gpu"):
                scheme = config.estimator
            else:  # hybrid: exact when the previous product compressed
                scheme = (
                    "symbolic"
                    if self.prev_cf < config.estimator_cf_threshold
                    else "probabilistic"
                )
            if scheme == "symbolic":
                estimated = float(symbolic_nnz(work, work))
            else:
                try:
                    estimated = estimate_nnz(
                        work, work, keys=config.estimator_keys,
                        seed=config.seed + it, injector=self.injector,
                    ).total
                except EstimationError as exc:
                    recover = (
                        policy is not None
                        and policy.estimator_fallback
                        and isinstance(exc, InjectedFault)
                    )
                    if not recover:
                        raise
                    # Charge the wasted probabilistic pass, then back off
                    # to the exact symbolic estimation (its cost is
                    # charged by the regular call below).
                    charge(scheme)
                    self.totals.estimator_fallbacks += 1
                    if tracer is not None:
                        tracer.instant(
                            "fault.estimator_fallback", "resilience",
                            iteration=it, scheme=scheme,
                        )
                    scheme = "symbolic"
                    estimated = float(symbolic_nnz(work, work))
            charge(scheme)
            plan = plan_phases(
                estimated,
                self.grid.size,
                config.memory_budget_bytes,
                safety_factor=(
                    1.0 if scheme == "symbolic" else config.estimator_safety
                ),
                replication=self.model.layers,
            )
            est_sp.set(scheme=scheme, estimated=estimated,
                       phases=plan.phases)
        step.estimated, step.scheme = estimated, scheme
        step.phases = plan.phases

    def expand(self, step: _Iteration) -> None:
        """The phased expansion fused with pruning, redone with doubled
        phases after a budget overrun when the policy allows."""
        comm, config, policy = self.comm, self.config, self.policy
        tracer, totals, it = self.tracer, self.totals, step.index
        budget = config.memory_budget_bytes
        expansion_t0 = comm.barrier()
        busy_before = [
            (c.cpu.busy_total(), c.gpu.busy_total()) for c in comm.clocks
        ]
        splits = 0
        exp_span = maybe_span("expansion", "mcl", iteration=it)
        while True:
            # Each attempt recomputes the full expansion; a retried
            # attempt's charged time stays on the clocks (the rerun is
            # real simulated work), but its prune totals are discarded.
            res = summa_multiply(
                step.dist_a,
                step.dist_a,
                comm,
                self.summa_cfg,
                phases=step.phases,
                prune_column=functools.partial(
                    prune_block_column, self.options, self.grid, it
                ),
                charge_column_prune=self.charge_column_prune,
                injector=self.summa_injector,
                executor=self.executor,
                overlap_budget_bytes=budget,
                merge_injector=self.merge_injector,
                model=self.model,
            )
            totals.absorb(res)
            overrun = res.max_rank_resident_bytes > budget
            if overrun:
                # The §VII-D hazard: the estimator undershot (or the
                # budget is simply unreachable within the phase cap) and
                # a process would have exceeded its memory.
                totals.budget_violations += 1
                if tracer is not None:
                    tracer.instant(
                        "fault.budget_violation", "resilience",
                        iteration=it, resident=res.max_rank_resident_bytes,
                        budget=budget,
                    )
            if (
                overrun
                and policy is not None
                and policy.split_phases_on_overrun
                and splits < policy.max_phase_splits
            ):
                # Overrun recovery: redo the expansion with double the
                # phases, halving each phase's transient footprint.  The
                # engine computes, merges and prunes every block column at
                # full width whatever the phase count (phases exist only
                # in its pricing), so the result is bit-identical.
                splits += 1
                totals.phase_split_retries += 1
                step.phases = min(step.phases * 2, 256)
                if tracer is not None:
                    tracer.instant(
                        "recovery.phase_split", "resilience",
                        iteration=it, phases=step.phases,
                    )
                continue
            break
        exp_span.set(phases=step.phases, splits=splits)
        exp_span.close()
        span = comm.barrier() - expansion_t0
        totals.expansion_seconds += span
        # Idle *within* the expansion section, per resource (Table V's
        # metric: how long each unit waits inside the pipelined SUMMA).
        for clock, (cpu0, gpu0) in zip(comm.clocks, busy_before):
            totals.expansion_cpu_idle += (
                span - (clock.cpu.busy_total() - cpu0)
            )
            totals.expansion_gpu_idle += (
                span - (clock.gpu.busy_total() - gpu0)
            )
        step.product = res
        step.exact_nnz = res.exact_nnz

    def charge_column_prune(self, j, nnz, width):
        """Charge block column ``j``'s prune: each rank's threshold scan
        and top-k selection, then the §II candidate exchange along the
        processor column (each rank contributes at most k entries per
        column)."""
        spec, grid, config = self.config.spec, self.grid, self.config
        threads = config.threads_per_process
        select = self.options.select_number
        for i, blk_nnz in enumerate(nnz):
            clock = self.comm.clocks[grid.rank_of(i, j)]
            clock.cpu.schedule(
                clock.cpu.free_at,
                spec.prune_time(
                    blk_nnz, threads, threaded_node=config.threaded_node
                ),
                "prune",
            )
            if select:
                clock.cpu.schedule(
                    clock.cpu.free_at,
                    spec.topk_time(blk_nnz, select, threads),
                    "prune",
                )
        if select:
            per_rank_cand = min(max(nnz, default=0), select * width)
            self.comm.alltoall(
                grid.col_members(j),
                16 * per_rank_cand // max(1, grid.q), "topk_exchange",
            )

    def inflate(self, step: _Iteration) -> DistributedCSC:
        """Inflation of the pruned product, one task per block column:
        the next iterate, distributed and global."""
        comm, grid, spec = self.comm, self.grid, self.config.spec
        threads, n = self.config.threads_per_process, step.work.nrows
        with maybe_span("inflation", "mcl", iteration=step.index):
            dist_c = step.product.dist_c
            for (i, j), blk in dist_c.blocks.items():
                clock = comm.clocks[grid.rank_of(i, j)]
                clock.cpu.schedule(
                    clock.cpu.free_at,
                    spec.inflate_time(blk.nnz, threads),
                    "inflation",
                )
            for j in range(grid.q):
                c_lo, c_hi = grid.block_bounds(n, j)
                comm.allreduce(
                    grid.col_members(j), 8 * (c_hi - c_lo), "inflation"
                )
            tasks = [
                (
                    [dist_c.block(i, j) for i in range(grid.q)], grid,
                    self.options.inflation,
                )
                for j in range(grid.q)
            ]
            done = run_tasks(
                self.executor, inflate_block_column, tasks, "inflation"
            )
            step.work = hstack_csc([slab for slab, _col in done])
        return DistributedCSC(
            step.work.shape, grid,
            {
                (i, j): done[j][1][i]
                for i in range(grid.q) for j in range(grid.q)
            },
        )

    def record(self, step: _Iteration) -> bool:
        """Append the iteration's record; True when it converged."""
        comm, it, work = self.comm, step.index, step.work
        ch = chaos_of(work)
        comm.allreduce(list(range(self.grid.size)), 8, "other_comm")
        comm.barrier()
        stage_after = _grouped_stage_seconds(comm)
        exact_nnz = step.exact_nnz
        cf = (step.flops / exact_nnz) if exact_nnz else 1.0
        res = step.product
        rec = HipMCLIteration(
            index=it,
            nnz_in=step.dist_a.nnz,
            flops=step.flops,
            estimated_nnz=step.estimated,
            exact_nnz=exact_nnz,
            estimator_used=step.scheme,
            estimation_error_pct=(
                abs(step.estimated - exact_nnz) / exact_nnz * 100.0
                if exact_nnz
                else 0.0
            ),
            phases=step.phases,
            nnz_pruned=work.nnz,
            cf=cf,
            chaos=ch,
            merge_peak_event_elements=res.merge_peak_event_elements,
            merge_peak_resident_elements=res.merge_peak_resident_elements,
            stage_seconds={
                k: stage_after[k] - step.stage_before.get(k, 0.0)
                for k in stage_after
            },
        )
        self.history.append(rec)
        if self.tracer is not None:
            self.tracer.metric(
                "iteration.nnz", work.nnz, iteration=it, chaos=ch,
                cf=cf, flops=step.flops,
            )
            self.tracer.metric("iteration.chaos", ch, iteration=it)
            self.tracer.metric(
                "estimator.bound", step.estimated, iteration=it,
                scheme=step.scheme, exact=exact_nnz,
                error_pct=rec.estimation_error_pct,
            )
        self.prev_cf = cf
        if self.checker is not None:
            self.checker.after_iteration(
                work, [h.chaos for h in self.history], it
            )
        return ch < self.options.chaos_threshold

    def checkpoint(self, directory, step: _Iteration) -> None:
        from ..resilience.checkpoint import (
            MclCheckpoint, checkpoint_path, save_checkpoint,
        )

        it = step.index
        save_checkpoint(
            checkpoint_path(directory, it),
            MclCheckpoint(
                iteration=it,
                work=step.work,
                history=self.history,
                prev_cf=self.prev_cf,
                elapsed_seconds=self.elapsed_offset + self.comm.elapsed(),
                counters=self.totals.counters(),
                fingerprint=self.fingerprint,
            ),
        )
        self.checkpoints_written += 1
        if self.tracer is not None:
            self.tracer.instant(
                "checkpoint.written", "resilience", iteration=it
            )

    def result(self, labels, converged, wall_start) -> HipMCLResult:
        comm, injector = self.comm, self.injector
        cpu_idle, gpu_idle = comm.idle_times()
        cpu_widle, gpu_widle = comm.window_idle_times()
        return HipMCLResult(
            labels=labels,
            n_clusters=int(labels.max()) + 1 if len(labels) else 0,
            iterations=len(self.history),
            converged=converged,
            elapsed_seconds=self.elapsed_offset + comm.elapsed(),
            stage_means=_grouped_stage_seconds(comm),
            cpu_idle_seconds=cpu_idle,
            gpu_idle_seconds=gpu_idle,
            bytes_communicated=comm.traffic.bytes_total,
            history=self.history,
            wall_seconds=_time.perf_counter() - wall_start,
            cpu_window_idle_seconds=cpu_widle,
            gpu_window_idle_seconds=gpu_widle,
            comm_retries=comm.traffic.collective_retries,
            retry_seconds=comm.traffic.retry_seconds,
            straggler_events=comm.traffic.straggler_events,
            faults_injected=injector.counts() if injector is not None else {},
            invariant_violations=(
                list(self.checker.violations)
                if self.checker is not None else []
            ),
            resumed_from_iteration=self.resumed_from,
            checkpoints_written=self.checkpoints_written,
            link_busy_seconds=comm.link_busy_seconds(),
            grid=self.config.grid,
            layers=self.model.layers,
            **self.totals.result_fields(self.grid.size),
        )


def hipmcl(
    matrix: CSCMatrix,
    options: MclOptions | None = None,
    config: HipMCLConfig | None = None,
    *,
    strict: bool = False,
    faults=None,
    resume_from=None,
    checkpoint_dir=None,
    checkpoint_every: int = 1,
    workers: int | str | None = None,
    trace=None,
    on_iteration=None,
    warm_start=None,
) -> HipMCLResult:
    """Run distributed MCL on the simulated machine and cluster ``matrix``.

    Parameters
    ----------
    strict:
        When the run exhausts ``options.max_iterations`` without
        converging, raise :class:`~repro.errors.ConvergenceError` (with
        the best-so-far result attached as ``.partial``) instead of
        returning it with ``converged=False``.
    faults:
        A :class:`~repro.resilience.faults.FaultPlan` or
        :class:`~repro.resilience.faults.FaultInjector` to inject
        transient faults into the simulated stack.  Arms the default
        :class:`~repro.resilience.policy.ResiliencePolicy` unless
        ``config.resilience`` sets one explicitly.  Recovered faults
        change only the simulated time accounting, never the clustering.
    resume_from:
        Path to a checkpoint written by a previous run with the *same*
        config and options (fingerprint-checked); the run continues from
        the iteration after the checkpoint and reaches the identical
        final result.
    checkpoint_dir / checkpoint_every:
        Write a checksum-validated checkpoint every ``checkpoint_every``
        completed (non-final) iterations into ``checkpoint_dir``.
    workers:
        The wall-clock execution knob (see :mod:`repro.parallel`): the
        number of threads to run the block columns of each SUMMA
        multiply and of each inflation across, the caller being one of
        them (default ``REPRO_WORKERS``, else one, which runs every task
        inline).  It does not enter the checkpoint fingerprint, so a run
        checkpointed at one worker count resumes at any other.  Every
        count produces bit-identical results — parallelism relocates
        computation without reordering any reduction.
    trace:
        A :class:`repro.trace.Tracer` to record the run into.  The driver
        activates it for the duration of the call, installs the run's
        simulated clock (``comm.elapsed``) as its ``sim_clock`` unless one
        is already set, and records spans/metrics across every layer
        (estimation, expansion stages, pruning, inflation, executor tasks,
        resilience events).  Tracing is passive: a traced run is
        bit-identical to an untraced one.  Export the result with
        :func:`repro.trace.write_chrome_trace` /
        :func:`repro.trace.write_metrics`.
    on_iteration:
        Callback fired at every iteration boundary as
        ``on_iteration(record, converged)`` with the just-appended
        :class:`HipMCLIteration` — *after* any checkpoint for that
        iteration is durable on disk, so the callback marks a safe
        resume point.  The service layer uses it for lease heartbeats,
        streaming progress, and simulated worker crashes; exceptions it
        raises propagate out of the driver (the in-flight iteration's
        work is already checkpointed).
    warm_start:
        A :class:`~repro.locality.WarmStart` (base labels + a
        :class:`~repro.locality.GraphDelta`).  ``matrix`` is then the
        *base* graph: the driver applies the delta, re-clusters only
        the patched-graph components the delta touches, and stitches —
        labels are identical to a cold run on the patched graph.
    """
    # The run's own keywords, passed on as they came.
    kwargs = {
        name: value for name, value in locals().items()
        if name not in ("matrix", "options", "config", "trace", "warm_start")
    }
    if warm_start is not None:
        from ..locality.delta import run_warm_start

        return run_warm_start(
            matrix, warm_start, options, config, trace=trace, **kwargs,
        )
    if trace is None:
        return _hipmcl_run(matrix, options, config, **kwargs)
    from ..trace import activate

    prev_sim = trace.sim_clock
    try:
        with activate(trace), trace.span("hipmcl", "mcl"):
            return _hipmcl_run(matrix, options, config, **kwargs)
    finally:
        trace.sim_clock = prev_sim


def _hipmcl_run(
    matrix: CSCMatrix,
    options: MclOptions | None,
    config: HipMCLConfig | None,
    *,
    strict,
    checkpoint_dir,
    checkpoint_every,
    on_iteration,
    **run_args,
) -> HipMCLResult:
    """The driver body behind :func:`hipmcl` (tracer already active): per
    iteration, estimate and plan → expand (fused with the prune) →
    inflate → record and check convergence → checkpoint.  ``run_args``
    (``faults``, ``resume_from``, ``workers``) build the
    :class:`_Run`."""
    wall_start = _time.perf_counter()
    options = options or MclOptions()
    config = config or HipMCLConfig()
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    run = _Run(options, config, **run_args)
    work = run.work
    if work is None:
        work = prepare_matrix(matrix, options)
    # Distributed once; each inflation hands on the next iterate's blocks.
    dist_a = DistributedCSC.from_global(work, run.grid)
    converged = False
    for it in range(run.resumed_from + 1, options.max_iterations + 1):
        step = _Iteration(
            it, work, _grouped_stage_seconds(run.comm), dist_a,
            flops(work, work),
        )
        run.estimate(step)
        run.expand(step)
        dist_a = run.inflate(step)
        converged = run.record(step)
        work = step.work
        if (
            checkpoint_dir is not None
            and not converged
            and it % checkpoint_every == 0
        ):
            run.checkpoint(checkpoint_dir, step)
        if on_iteration is not None:
            # Fired with the iteration's checkpoint (if any) already
            # durable, so an exception here loses no committed work.
            on_iteration(run.history[-1], converged)
        if converged:
            break

    result = run.result(connected_components(work), converged, wall_start)
    if strict and not converged:
        history = run.history
        err = ConvergenceError(
            f"no convergence after {result.iterations} iterations "
            f"(final chaos {history[-1].chaos:.3g} >= threshold "
            f"{options.chaos_threshold:g}); best-so-far result attached "
            "as .partial"
            if history
            else "no convergence: zero iterations executed"
        )
        err.partial = result
        raise err
    return result
