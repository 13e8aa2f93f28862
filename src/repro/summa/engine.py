"""The distributed SpGEMM engine: Sparse SUMMA and Pipelined Sparse SUMMA.

One engine implements both §II's classic bulk-synchronous Sparse SUMMA and
§III's Pipelined Sparse SUMMA; a :class:`SummaConfig` selects the behavior:

* ``pipelined=False, use_gpu=False, kernel="heap", merge="multiway"`` is
  original HipMCL's expansion;
* ``pipelined=True, use_gpu=True, kernel="hybrid", merge="binary"`` is the
  paper's optimized expansion.

Execution model: every rank's program runs in one address space against
real submatrices, while each rank's CPU/GPU :class:`ResourceTimeline`
advances by modeled durations.  Broadcasts synchronize their
subcommunicator (blocking collectives); in pipelined mode the stage-k GPU
multiply runs concurrently with the stage-(k+1) broadcasts and the CPU
merge events of the binary schedule, because nothing barriers the ranks
between stages.  In classic mode a global barrier closes every stage
(bulk-synchronous, as HipMCL was).

Phased execution (§II, §V): when the caller passes ``phases=h > 1``, each
local B block contributes only its p-th column slice per phase, the phase's
output is handed to ``phase_callback`` (the HipMCL driver prunes there —
the fused expand+prune), and A is re-broadcast every phase — exactly the
extra communication the pipelining hides.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import DeviceMemoryError, InjectedFault, KernelLaunchError
from ..gpu.device import GPUDevice, split_columns
from ..machine.spec import MachineSpec, SUMMIT_LIKE
from ..merge import SCHEDULES, TripleList, merge_lists
from ..merge.spkadd import STRATEGY_LADDER, spkadd_merge
from ..mpi.comm import RESILIENCE_ACCOUNT, VirtualComm
from ..perf.esc import transpose
from ..sparse import CSCMatrix, hstack_csc
from ..spgemm.esc import spgemm_esc
from ..spgemm.hashspgemm import hash_operation_count
from ..spgemm.heap import heap_operation_count
from ..spgemm.hybrid import KernelKind, degrade_kernel, select_kernel
from ..spgemm.metrics import WorkProfile
from ..trace import current_tracer, maybe_span
from .distmatrix import DistributedCSC
from .engine3d import Grid3DModel


_KERNEL_NAMES = {
    "heap": KernelKind.CPU_HEAP,
    "cpu-heap": KernelKind.CPU_HEAP,
    "hash": KernelKind.CPU_HASH,
    "cpu-hash": KernelKind.CPU_HASH,
    "bhsparse": KernelKind.GPU_BHSPARSE,
    "nsparse": KernelKind.GPU_NSPARSE,
    "rmerge2": KernelKind.GPU_RMERGE2,
}


@dataclass(frozen=True)
class SummaConfig:
    """Knobs of one distributed multiplication."""

    spec: MachineSpec = SUMMIT_LIKE
    kernel: str = "hybrid"  # a _KERNEL_NAMES key, or "hybrid"
    merge: str = "binary"  # "multiway" | "twoway" | "binary"
    pipelined: bool = True
    use_gpu: bool = True
    gpus_per_process: int = 6
    threads: int = 40
    #: Thread-based (one fat process per node) vs process-based node
    #: management — affects the pruning NUMA penalty (Fig. 5).
    threaded_node: bool = True
    #: Record per-event (rank, phase, stage, kind, start, end) tuples in
    #: ``SummaResult.trace`` — used to regenerate Fig. 2's timeline.
    trace: bool = False
    #: Broadcast schedule.  ``"sync"`` charges every broadcast as a
    #: blocking collective on the member CPUs (the PR4 behavior);
    #: ``"static"`` walks a flat stage sequence, posting each stage's
    #: A-row/B-column broadcasts asynchronously on per-tree link clocks so
    #: they run under the previous stage's multiplies and merges.  Unlike
    #: the wall-clock knobs this changes the *simulated* timings (that is
    #: its purpose), so it participates in config fingerprints; within a
    #: schedule, every (backend, workers) cell stays bit-identical to
    #: serial.
    schedule: str = "sync"

    def __post_init__(self):
        if self.kernel != "hybrid" and self.kernel not in _KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; options: "
                f"{['hybrid', *sorted(_KERNEL_NAMES)]}"
            )
        if self.merge not in SCHEDULES:
            raise ValueError(
                f"unknown merge schedule {self.merge!r}; "
                f"options: {sorted(SCHEDULES)}"
            )
        if self.gpus_per_process < 1 or self.threads < 1:
            raise ValueError("gpus_per_process and threads must be >= 1")
        if self.schedule not in ("sync", "static"):
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                f"options: ['sync', 'static']"
            )
        if self.schedule == "static" and not self.pipelined:
            raise ValueError(
                "schedule='static' requires pipelined=True: the "
                "bulk-synchronous engine barriers every stage, which is "
                "exactly what the static schedule removes"
            )


@dataclass
class SummaResult:
    """Distributed product plus the accounting the experiments read."""

    dist_c: DistributedCSC
    kernel_selections: Counter = field(default_factory=Counter)
    gpu_fallbacks: int = 0  # device-OOM falls back to CPU hash
    #: CPU-hash -> heap demotions (injected host hash-table overflows).
    kernel_demotions: int = 0
    merge_peak_event_elements: int = 0  # max over ranks/phases
    merge_peak_resident_elements: int = 0
    merge_operations: float = 0.0
    #: Physical merges per planned SpKAdd strategy label.  Strategy planning is
    #: a pure function of the inputs and the budget, so these counts are
    #: identical across every (backend, workers) cell.
    merge_strategy_selections: Counter = field(default_factory=Counter)
    #: Injected merge-memory overruns absorbed by the recovery ladder.
    merge_demotions: int = 0
    phases: int = 1
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    stage_flops: int = 0
    #: Event timeline (rank, phase, stage, kind, start, end) when traced.
    trace: list[tuple[int, int, int, str, float, float]] = field(
        default_factory=list
    )
    #: Largest per-rank transient footprint observed in any phase: the
    #: merge-resident triples plus the stage's input blocks.  This is the
    #: quantity the phase planner (§V) is supposed to keep under the
    #: per-process budget.
    max_rank_resident_bytes: int = 0
    # -- static pipeline schedule (simulated-clock, cell-invariant) ------
    #: The broadcast schedule the multiply ran under ("sync" | "static").
    schedule: str = "sync"
    #: Link-side double-buffer window of the static schedule: 0 under
    #: sync, 1 when the byte budget degraded static to the synchronous
    #: path, 2 when stage-(k+1) broadcasts genuinely pipelined.
    pipeline_window: int = 0
    #: Simulated seconds async broadcasts spent in flight while the rank
    #: clocks advanced through multiplies and merges — the §III evidence
    #: that broadcast time hides behind compute.
    bcast_overlap_seconds: float = 0.0
    #: Simulated seconds the per-column phase prune ran while the next
    #: stages' broadcasts were still on the wires.
    prune_bcast_overlap_seconds: float = 0.0
    #: Seconds this multiply's broadcasts occupied the link clocks.
    link_busy_seconds: float = 0.0
    # -- grid model transport (empty under the plain 2-D grid) ----------
    #: Per-column-group transport selections of this multiply
    #: ("broadcast"/"p2p") — the hybrid-transport evidence.
    transport_selections: Counter = field(default_factory=Counter)
    #: p2p → broadcast demotions the fault ladder performed here.
    transport_demotions: int = 0


def _pick_kernel(
    config: SummaConfig,
    profile,
    gpu_ok: bool,
) -> KernelKind:
    if config.kernel == "hybrid":
        return select_kernel(
            profile,
            gpu_available=config.use_gpu and gpu_ok,
            policy=config.spec.selection_policy(),
        )
    kind = _KERNEL_NAMES[config.kernel]
    if kind.on_gpu and not (config.use_gpu and gpu_ok):
        return KernelKind.CPU_HASH  # forced-GPU config without a usable GPU
    return kind


def _cpu_kernel_ops(
    kind: KernelKind, a, b, c_nnz: int, per_col: np.ndarray, flops: int
) -> float:
    if kind is KernelKind.CPU_HEAP:
        return heap_operation_count(a, b, per_col)
    return hash_operation_count(a, b, c_nnz, flops)


def _gpu_stage_time(
    spec: MachineSpec,
    kind: KernelKind,
    a: CSCMatrix,
    b: CSCMatrix,
    c_indptr: np.ndarray,
    devices: list[GPUDevice],
    per_col_flops: np.ndarray,
) -> tuple[float, int, int]:
    """Kernel-only seconds (concurrent devices → max share), H2D and D2H
    bytes for one offloaded local multiply, with device-memory checks.

    Raises :class:`DeviceMemoryError` when any device's share does not fit;
    the caller falls back to the CPU kernel (§III's memory rationale for
    the hybrid CPU-GPU approach).
    """
    g = len(devices)
    a_bytes = a.memory_bytes()
    h2d = d2h = 0
    worst = 0.0
    for dev, (lo, hi) in zip(devices, split_columns(b.ncols, g)):
        b_bytes = (
            int(b.indptr[hi] - b.indptr[lo]) * 16 + (hi - lo + 1) * 8
        )
        c_nnz = int(c_indptr[hi] - c_indptr[lo])
        c_bytes = c_nnz * 16 + (hi - lo + 1) * 8
        try:
            dev.allocate("A", a_bytes)
            dev.allocate("B", b_bytes)
            dev.allocate("C", c_bytes)
            dev.count_launch()
        except (DeviceMemoryError, KernelLaunchError):
            dev.free_all()
            raise
        slab_flops = float(per_col_flops[lo:hi].sum())
        cf = slab_flops / c_nnz if c_nnz else 1.0
        worst = max(
            worst,
            spec.gpu_spgemm_time(kind, slab_flops, cf, a_bytes + b_bytes),
        )
        h2d += a_bytes + b_bytes
        d2h += c_bytes
        dev.free_all()
    return worst, h2d, d2h


#: Sentinel for ``summa_multiply(merge_injector=...)``: "not passed" means
#: inherit ``injector`` (the common case); an explicit None disarms the
#: merge fault site (the resilience policy's ``degrade_merge=False``).
_INHERIT = object()


class _RankMergeState:
    """Per-rank merge schedule plus the timing of its events."""

    def __init__(self, shape, merge_kind: str, merge_fn=None):
        self.schedule = SCHEDULES[merge_kind](shape, merge_fn)
        self.events_charged = 0
        self.last_available = 0.0

    def push(self, triples: TripleList, available_at: float):
        self.schedule.push(triples)
        self.last_available = max(self.last_available, available_at)
        return self.schedule.events[self.events_charged :]

    def mark_charged(self):
        self.events_charged = len(self.schedule.events)

    def finish(self):
        outcome = self.schedule.finish()
        new = outcome.events[self.events_charged :]
        self.events_charged = len(outcome.events)
        return outcome, new


def summa_multiply(
    dist_a: DistributedCSC,
    dist_b: DistributedCSC,
    comm: VirtualComm,
    config: SummaConfig,
    *,
    phases: int = 1,
    phase_callback=None,
    phase_column_callback=None,
    devices: dict[int, list[GPUDevice]] | None = None,
    injector=None,
    executor=None,
    workers: int | str | None = None,
    backend: str | None = None,
    overlap_budget_bytes: int | None = None,
    merge_injector=_INHERIT,
    model=None,
) -> SummaResult:
    """Compute ``C = A·B`` on the grid, per the configured algorithm.

    ``phase_callback(blocks, phase_index)`` receives the phase's per-rank
    output slabs (dict ``(i, j) -> CSCMatrix``) and returns the (pruned)
    slabs to keep; rank clocks may be charged inside the callback (the
    HipMCL driver charges pruning there).

    ``phase_column_callback(col_blocks, j, phase_index)`` is the static
    schedule's incremental variant: under ``config.schedule ==
    "static"`` it is called once per block column ``j`` as soon as that
    column's merges finish — while the next stages' broadcasts are still
    in flight on the links — with the column's ``{(i, j): CSCMatrix}``
    slabs.  It returns the pruned slabs, or a zero-argument callable the
    engine resolves in column order after the phase's last column (so a
    pool-backed prune can overlap the remaining columns' merges on the
    wall clock).  When the static schedule is off or degraded to
    synchronous, this callback is ignored and ``phase_callback`` runs as
    usual — callers should pass both.

    ``executor`` (or ``workers`` and ``backend``, resolved through
    :func:`repro.parallel.get_executor`) selects the wall-clock backend:
    with a pool executor, each stage's independent ``(i, j)`` local
    products are computed across the pool *before* the serial accounting
    pass consumes them in the usual ``(i, j)`` order — modeled clocks,
    traces, and fault draws are untouched, so every ``(backend, workers)``
    combination is bit-identical to ``workers=1``.

    ``overlap_budget_bytes`` (the §V estimator budget) bounds the static
    schedule's double buffer (:func:`~repro.summa.phases.overlap_window`
    degrades it to the synchronous broadcasts when a second in-flight
    stage does not fit) and the SpKAdd strategy planning.

    ``injector`` threads fault injection into the engine-created devices
    and the CPU hash kernel.  Faulted kernels demote along the ladder
    (GPU → CPU-hash → heap); *injected* faults additionally charge the
    aborted attempt's staging/compute time under the resilience account,
    so recovery shows up in the simulated timelines.  Numerics never
    change — only which kernel kind is charged.

    Each physical merge is planned under an SpKAdd strategy label
    (:func:`~repro.summa.phases.plan_merge_strategy`); one engine runs
    behind every label, inline.  ``merge_injector`` (defaults to
    ``injector``) arms the merge-memory-overrun fault site: an injected
    overrun charges the overrunning attempt's modeled time under the
    resilience account and demotes the strategy ladder for the rest of the
    run.  Draws happen once per merge event in the serial accounting pass,
    so injections are identical across every execution cell too.

    ``model`` (a :class:`~repro.summa.engine3d.Grid3DModel`) decides
    where the simulated time and traffic land: which tree broadcasts (or
    hybrid-transport p2p sends) carry each stage, which rank's clock each
    kernel and merge charges, and the 2D→3D redistribution plus the
    per-fiber combine around the multiply.  None is the one-layer model
    with broadcast-only delivery — the plain 2-D grid.  The numeric path
    — block products, merge pushes, pruning — is the same for every
    model, so ``model`` changes simulated clocks only, never results.
    """
    grid = dist_a.grid
    if dist_b.grid.q != grid.q:
        raise ValueError(
            f"grid mismatch: A on {grid.q}x{grid.q}, B on "
            f"{dist_b.grid.q}x{dist_b.grid.q}"
        )
    if dist_a.global_shape[1] != dist_b.global_shape[0]:
        raise ValueError(
            f"inner dimension mismatch: {dist_a.global_shape} x "
            f"{dist_b.global_shape}"
        )
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    q = grid.q
    spec = config.spec
    if model is None:
        model = Grid3DModel(q, 1, None)
    elif model.q != q:
        raise ValueError(
            f"grid model built for q={model.q}, matrices on q={q}"
        )
    if executor is None:
        from ..parallel import get_executor

        executor = get_executor(workers, backend)
    #: The observability tracer (None in the common untraced case); all
    #: instrumentation below is passive — it never touches rank clocks,
    #: fault draws, or result accounting, keeping traced runs bit-identical.
    tracer = current_tracer()
    parallel_stages = executor.workers > 1
    pipeline_window = 0
    if config.schedule == "static":
        from .phases import overlap_window

        # Per-rank footprint of one in-flight stage: the largest A block
        # plus the largest B phase slab (a block's columns split h ways).
        cells = [(i, j) for i in range(q) for j in range(q)]
        a_max = max(dist_a.block_storage_bytes(i, j) for i, j in cells)
        b_max = max(dist_b.block_storage_bytes(i, j) for i, j in cells)
        # Double-buffered broadcasts hold a second stage of slabs live,
        # so a budget with no room degrades to the synchronous schedule.
        # The window is independent of the executor: the static schedule
        # changes simulated time and must be identical across every
        # (backend, workers) cell.
        pipeline_window = overlap_window(
            int(a_max + (b_max + phases - 1) // phases), overlap_budget_bytes
        )
    static_active = pipeline_window > 1
    if devices is None and config.use_gpu:
        devices = {
            r: [
                GPUDevice(spec, index=d, injector=injector)
                for d in range(config.gpus_per_process)
            ]
            for r in range(grid.size)
        }

    result = SummaResult(
        dist_c=DistributedCSC(
            (dist_a.global_shape[0], dist_b.global_shape[1]), grid, {}
        ),
        phases=phases,
    )
    result.schedule = config.schedule
    result.pipeline_window = pipeline_window
    link_busy_before = comm.link_busy_seconds()
    # The model lives across a whole run; record its counters so the
    # result reports only this multiply's selections and demotions.
    sel_before = Counter(model.transport_selections)
    dem_before = model.transport_demotions
    model.charge_redistribution(comm, dist_a.nnz + dist_b.nnz)
    kept_slabs: dict[tuple[int, int], list[CSCMatrix]] = {
        (i, j): [] for i in range(q) for j in range(q)
    }

    if merge_injector is _INHERIT:
        merge_injector = injector
    from .phases import plan_merge_strategy

    #: Recovery-ladder rung injected merge overruns have pushed the run
    #: to (one-element list: the closure reads it, the fault sites write).
    merge_rung = [0]

    def engine_merge(lists):
        """The schedules' numeric engine, called under a planned label.

        Planning sees only the inputs, the budget, and the recovery rung —
        never the executor — so ``merge_strategy_selections`` is identical
        across cells.  The merge itself always runs inline, here.
        """
        total = sum(len(t) for t in lists)
        strategy = plan_merge_strategy(
            total, lists[0].shape,
            budget_bytes=overlap_budget_bytes, rung=merge_rung[0],
        )
        result.merge_strategy_selections[strategy] += 1
        if tracer is not None:
            tracer.metric(
                "merge.strategy", total, strategy=strategy, k=len(lists),
            )
            tracer.count(f"merge.{strategy}")
        if strategy == "serial":
            return merge_lists(lists, copy=False)
        return spkadd_merge(lists, strategy=strategy)

    # Pre-slice B's blocks per phase (local column ranges align across a
    # block column because widths are identical within it).  Slabs are
    # memoized on their source block — together with their broadcast byte
    # count, so re-expanding the same matrix (every MCL iteration revisits
    # every stage) never recomputes the slice *or* its nonzero-column scan.
    def phase_slab(k: int, j: int, p: int) -> tuple[CSCMatrix, int]:
        from ..perf.cache import memo

        blk = dist_b.block(k, j)
        lo, hi = _phase_bounds(blk.ncols, phases, p)

        def build():
            slab = blk.column_slab(lo, hi)
            nzc = int(np.count_nonzero(slab.column_lengths()))
            return slab, 16 * slab.nnz + 16 * nzc + 8

        return memo(blk, ("slab", lo, hi), build)

    # -- static pipeline schedule: a flat stage sequence -------------------
    # The whole expansion is walked as one flat sequence of nodes, node
    # n = p·q + k being stage k of phase p, across phase boundaries: node
    # n+2's transfers are posted the moment node n's slabs are consumed,
    # so the last stage of phase p overlaps the first broadcasts of phase
    # p+1, and the per-column prune between them runs while those
    # broadcasts are on the wires.  `node_consumed[n]` gates the double
    # buffer: issue(s) waits for consumed(s-2), bounding live slabs to
    # the two stages `overlap_window` granted.  The model's channels are
    # shared across stages, so stage k+1's row-i tree serializes behind
    # stage k's on the same link.
    n_nodes = phases * q
    node_handles: dict[int, tuple] = {}
    node_consumed: dict[int, float] = {}
    issue_base = max(c.now for c in comm.clocks) if static_active else 0.0
    trace = result.trace if config.trace else None

    def _window_overlap(w0: float, w1: float, h) -> float:
        return max(0.0, min(w1, h.end) - max(w0, h.start))

    def stage_slabs(k: int, pp: int) -> tuple[list, list]:
        slabs_k: list[CSCMatrix] = []
        slab_bytes_k: list[int] = []
        for j in range(q):
            slab, nbytes = phase_slab(k, j, pp)
            slabs_k.append(slab)
            slab_bytes_k.append(nbytes)
        return slabs_k, slab_bytes_k

    def post_stage(k: int, pp: int, slabs_k, slab_bytes_k, gate=None):
        with maybe_span(
            "broadcast", "summa", phase=pp, stage=k,
            schedule="sync" if gate is None else "static",
        ) as bsp:
            posted = model.post_stage(
                comm, k, pp, dist_a, slabs_k, slab_bytes_k, gate, trace
            )
            bsp.set(
                bytes_a=int(posted[2].sum()), bytes_b=int(posted[3].sum())
            )
        return posted

    def issue_node(n: int) -> None:
        pp, k = divmod(n, q)
        node_handles[n] = post_stage(
            k, pp, *stage_slabs(k, pp),
            gate=node_consumed.get(n - 2, issue_base),
        )

    if static_active:
        for n in range(min(2, n_nodes)):
            issue_node(n)

    for p in range(phases):
        # Blocks are merged in the row-major form the multiply produces
        # (shape transposed) and transposed back once, when finished.
        merge_states = {
            (i, j): _RankMergeState(
                (
                    _phase_width(dist_b.block(0, j).ncols, phases, p),
                    dist_a.block(i, 0).nrows,
                ),
                config.merge,
                engine_merge,
            )
            for i in range(q)
            for j in range(q)
        }
        input_bytes_peak = np.zeros((q, q), dtype=np.int64)

        for k in range(q):
            # Each stage builds (or memo-hits) its B phase slabs and, with
            # a pool executor, submits its independent (i, j) local
            # multiplies; the accounting pass below then consumes them in
            # the same deterministic (i, j) order it would have computed
            # them in.  Serially, the handle stays None and the pass
            # computes inline — byte-for-byte the same products.
            with maybe_span("submit", "summa", phase=p, stage=k) as sp:
                slabs, slab_bytes = stage_slabs(k, p)
                pairs: list[tuple[int, int]] = []
                handle = None
                if parallel_stages:
                    from ..parallel.work import local_multiply

                    pairs = [
                        (i, j)
                        for i in range(q)
                        if dist_a.block(i, k).nnz
                        for j in range(q)
                        if slabs[j].nnz
                    ]
                    if pairs:
                        handle = executor.submit_batch(
                            local_multiply,
                            [(dist_a.block(i, k), slabs[j]) for i, j in pairs],
                            label=f"summa phase {p} stage {k}",
                            attrs={"phase": p, "stage": k},
                        )
                sp.set(tasks=len(pairs))
            node_idx = p * q + k
            stage_window_t0 = 0.0
            if static_active:
                # Transfers were posted on the links one-or-two stages
                # ago; this stage just picks up its handles.  The window
                # [now, consumed] is where their in-flight time overlaps
                # this stage's compute — the bcast_overlap evidence.
                posted = node_handles.pop(node_idx)
                stage_window_t0 = max(c.now for c in comm.clocks)
            else:
                # -- broadcasts: A along rows, B along columns --------------
                posted = post_stage(k, p, slabs, slab_bytes)
            a_handles, b_handles, a_bytes_row, b_bytes_col, stage_uniq = (
                posted
            )
            np.maximum(
                input_bytes_peak,
                a_bytes_row[:, None] + b_bytes_col[None, :],
                out=input_bytes_peak,
            )
            # -- local multiplies ---------------------------------------------
            stage_products = None
            if handle is not None:
                with maybe_span(
                    "gather", "summa", phase=p, stage=k, tasks=len(pairs)
                ):
                    stage_products = dict(zip(pairs, handle.result()))
            # The whole accounting-and-merge pass is one main-lane span.
            merge_span = maybe_span("merge", "summa", phase=p, stage=k)
            stage_available = 0.0
            stage_ranks = model.stage_ranks(k)
            for i in range(q):
                a_blk = dist_a.block(i, k)
                ranks_i = stage_ranks[i]
                for j in range(q):
                    rank = ranks_i[j]
                    clock = comm.clocks[rank]
                    b_blk = slabs[j]
                    if a_blk.nnz == 0 or b_blk.nnz == 0:
                        continue
                    # Under the static schedule a local multiply cannot
                    # start before its inputs are off the wires; the sync
                    # schedule already blocked the CPUs in the collective,
                    # so 0.0 reproduces its numbers bit-for-bit.
                    ready = 0.0
                    if static_active:
                        ready = max(a_handles[i].end, b_handles[j].end)
                    # Row-major: the canonical CSC of the product's
                    # transpose, which the merge adds as it is, plus the
                    # product's own column pointer for the device split.
                    if stage_products is not None:
                        product, c_indptr, per_col = stage_products[(i, j)]
                    else:
                        product, c_indptr, per_col = spgemm_esc(
                            a_blk, b_blk, transposed=True
                        )
                    profile = WorkProfile.from_per_column(
                        per_col, a_blk.nnz, b_blk.nnz, product.nnz
                    )
                    result.stage_flops += profile.flops
                    gpu_ok = config.use_gpu and devices is not None
                    kind = _pick_kernel(config, profile, gpu_ok)
                    while kind.on_gpu:
                        try:
                            kern_s, h2d, d2h = _gpu_stage_time(
                                spec, kind, a_blk, b_blk, c_indptr,
                                devices[rank], per_col,
                            )
                            break
                        except (DeviceMemoryError, KernelLaunchError) as exc:
                            # Degradation ladder: the device failed this
                            # stage (genuine OOM or injected transient),
                            # so the multiply moves down a rung.  Only
                            # injected faults charge the aborted staging
                            # — a genuine OOM is caught before any copy.
                            result.gpu_fallbacks += 1
                            if tracer is not None:
                                tracer.instant(
                                    "fault.gpu_fallback", "resilience",
                                    rank=rank, phase=p, stage=k,
                                    kernel=kind.value,
                                    injected=isinstance(exc, InjectedFault),
                                )
                            if isinstance(exc, InjectedFault):
                                waste = spec.h2d_time(a_blk.memory_bytes())
                                start = max(
                                    clock.cpu.free_at, clock.gpu.free_at,
                                    ready,
                                )
                                clock.cpu.schedule(
                                    start, waste, RESILIENCE_ACCOUNT
                                )
                                clock.gpu.schedule(
                                    start, waste, RESILIENCE_ACCOUNT
                                )
                            kind = degrade_kernel(kind)
                    if (
                        injector is not None
                        and kind is KernelKind.CPU_HASH
                        and injector.cpu_kernel_fault()
                    ):
                        # Injected host hash-table overflow: charge the
                        # aborted hash attempt, demote to the heap.
                        ops = _cpu_kernel_ops(
                            kind, a_blk, b_blk, product.nnz,
                            per_col, profile.flops,
                        )
                        clock.cpu.schedule(
                            ready,
                            spec.cpu_spgemm_time(kind, ops, config.threads),
                            RESILIENCE_ACCOUNT,
                        )
                        result.kernel_demotions += 1
                        if tracer is not None:
                            tracer.instant(
                                "fault.kernel_demotion", "resilience",
                                rank=rank, phase=p, stage=k,
                                kernel=kind.value,
                            )
                        kind = degrade_kernel(kind)
                    result.kernel_selections[kind.value] += 1
                    if tracer is not None:
                        tracer.metric(
                            "kernel_dispatch", profile.flops,
                            kernel=kind.value, cf=profile.cf,
                            nnz_c=profile.nnz_c, rank=rank,
                            phase=p, stage=k,
                        )
                        tracer.count(f"kernel.{kind.value}")
                    if kind.on_gpu:
                        # Transfer occupies both host and device; the CPU
                        # is released as soon as the inputs are on the
                        # device (§III), the GPU continues into the kernel.
                        start = max(
                            clock.cpu.free_at, clock.gpu.free_at, ready
                        )
                        h2d_s = spec.h2d_time(h2d)
                        clock.cpu.schedule(start, h2d_s, "h2d")
                        clock.gpu.schedule(start, h2d_s, "h2d")
                        mult_end = clock.gpu.schedule(
                            clock.gpu.free_at, kern_s, "local_spgemm"
                        )
                        done = clock.gpu.schedule(
                            clock.gpu.free_at, spec.d2h_time(d2h), "d2h"
                        )
                        if config.trace:
                            result.trace.extend(
                                (
                                    (rank, p, k, "h2d", start, start + h2d_s),
                                    (rank, p, k, "gpu_mult",
                                     mult_end - kern_s, mult_end),
                                    (rank, p, k, "d2h", mult_end, done),
                                )
                            )
                        result.h2d_bytes += h2d
                        result.d2h_bytes += d2h
                        if not config.pipelined and done > clock.cpu.free_at:
                            # Bulk-synchronous: the CPU blocks on the
                            # device result before doing anything else.
                            clock.cpu.idle += done - clock.cpu.free_at
                            clock.cpu.free_at = done
                        available = done
                    else:
                        ops = _cpu_kernel_ops(
                            kind, a_blk, b_blk, product.nnz,
                            per_col, profile.flops,
                        )
                        dur = spec.cpu_spgemm_time(kind, ops, config.threads)
                        available = clock.cpu.schedule(
                            ready, dur, "local_spgemm"
                        )
                        if config.trace:
                            result.trace.append(
                                (rank, p, k, "cpu_mult",
                                 available - dur, available)
                            )
                    stage_available = max(stage_available, available)
                    # -- merge events triggered by this arrival -----------------
                    # (Looked up, not bound: a name left over from the
                    # last block would outlive that block's release.)
                    new_events = merge_states[(i, j)].push(
                        TripleList.from_csc(product, copy=False), available
                    )
                    for ev in new_events:
                        dur = spec.merge_time(ev.operations, config.threads)
                        if (
                            merge_injector is not None
                            and merge_injector.merge_fault()
                        ):
                            # Injected merge-memory overrun: the attempt's
                            # modeled time is wasted, and the strategy
                            # ladder degrades for the rest of the run.
                            clock.cpu.schedule(
                                max(clock.cpu.free_at, available), dur,
                                RESILIENCE_ACCOUNT,
                            )
                            result.merge_demotions += 1
                            merge_rung[0] = min(
                                merge_rung[0] + 1, len(STRATEGY_LADDER) - 1
                            )
                            if tracer is not None:
                                tracer.instant(
                                    "fault.merge_overrun", "resilience",
                                    rank=rank, phase=p, stage=k,
                                )
                        end = clock.cpu.schedule(
                            max(clock.cpu.free_at, available), dur, "merge"
                        )
                        if config.trace:
                            result.trace.append(
                                (rank, p, k, "merge", end - dur, end)
                            )
                    merge_states[(i, j)].mark_charged()
            merge_span.close()
            if static_active:
                # This stage's slabs are consumed once every multiply has
                # its inputs absorbed *and* the broadcasts themselves have
                # drained (empty blocks skip the multiply but the wires
                # still carried them).  consumed(n) gates issue(n+2).
                consumed_t = stage_available
                for h in stage_uniq:
                    consumed_t = max(consumed_t, h.end)
                node_consumed[node_idx] = consumed_t
                window_t1 = max(c.now for c in comm.clocks)
                live = [stage_uniq] + [
                    hs[4] for hs in node_handles.values()
                ]
                for handles in live:
                    for h in handles:
                        result.bcast_overlap_seconds += _window_overlap(
                            stage_window_t0, window_t1, h
                        )
                if node_idx + 2 < n_nodes:
                    issue_node(node_idx + 2)
            if not config.pipelined:
                comm.barrier()
        # -- phase wrap-up: final merges, callback -----------------------------
        def finish_state(i: int, j: int) -> CSCMatrix:
            # Final merges run on the block's post-combine owner: the
            # home cell the fiber combine returned the partials to.
            rank = model.home_rank(i, j)
            clock = comm.clocks[rank]
            # Popped, not read: the accumulator and the output block are
            # different arrays, so a state kept to the end of the phase
            # would hold every block twice.
            state = merge_states.pop((i, j))
            outcome, new_events = state.finish()
            for ev in new_events:
                dur = spec.merge_time(ev.operations, config.threads)
                if merge_injector is not None and merge_injector.merge_fault():
                    clock.cpu.schedule(
                        max(clock.cpu.free_at, state.last_available), dur,
                        RESILIENCE_ACCOUNT,
                    )
                    result.merge_demotions += 1
                    merge_rung[0] = min(
                        merge_rung[0] + 1, len(STRATEGY_LADDER) - 1
                    )
                    if tracer is not None:
                        tracer.instant(
                            "fault.merge_overrun", "resilience",
                            rank=rank, phase=p,
                        )
                clock.cpu.schedule(
                    max(clock.cpu.free_at, state.last_available), dur,
                    "merge",
                )
            result.merge_operations += outcome.operations
            result.merge_peak_event_elements = max(
                result.merge_peak_event_elements, outcome.peak_event_elements
            )
            result.merge_peak_resident_elements = max(
                result.merge_peak_resident_elements,
                outcome.peak_resident_elements,
            )
            result.max_rank_resident_bytes = max(
                result.max_rank_resident_bytes,
                outcome.peak_resident_elements * 24
                + int(input_bytes_peak[i, j]),
            )
            return transpose(outcome.result.to_csc())

        def fiber_combine(j: int) -> None:
            model.charge_fiber_combine(
                comm, j,
                sum(
                    merge_states[(i, j)].schedule.peak_resident
                    for i in range(q)
                ),
                config.threads,
            )

        phase_blocks: dict[tuple[int, int], CSCMatrix] = {}
        if static_active and phase_column_callback is not None:
            # Incremental prune: each block column is finished and handed
            # to the callback as soon as its own merges are done, while
            # the next stages' broadcasts (already posted above, up to
            # two stages into phase p+1) are still in flight on the
            # links.  The callback may defer its physical compute by
            # returning a callable — resolved below in column order, so
            # the results are independent of where the work actually ran.
            deferred: list = []
            for j in range(q):
                col_ranks = grid.col_members(j)
                # The column's inter-phase prune stage spans its final
                # merges *and* the callback: that whole window runs while
                # the posted next-phase broadcasts drain on the links, so
                # the overlap evidence opens when the column's wrap-up
                # starts, not after its merges land.
                prune_t0 = min(
                    comm.clocks[r].cpu.free_at for r in col_ranks
                )
                # The per-fiber all-to-all combine returns this column's
                # c partial slabs to their 2-D owners before its final
                # merges and prune.
                fiber_combine(j)
                with maybe_span(
                    "finish_merge", "summa", phase=p, column=j
                ):
                    col_blocks = {
                        (i, j): finish_state(i, j) for i in range(q)
                    }
                with maybe_span(
                    "phase_callback", "summa", phase=p, column=j
                ):
                    ret = phase_column_callback(col_blocks, j, p)
                prune_t1 = max(
                    comm.clocks[r].cpu.free_at for r in col_ranks
                )
                if tracer is not None:
                    # The column's true simulated wrap-up window (its
                    # ranks' clocks, not the global frontier) — the span
                    # link_overlap_report intersects with the in-flight
                    # broadcasts.
                    tracer.event_span(
                        "prune.column", "summa",
                        t0_sim=prune_t0, t1_sim=prune_t1,
                        phase=p, column=j,
                    )
                # Each in-flight transfer once: members of a 3-D group
                # share one tree handle, so the per-row / per-column
                # handle lists would count it r times.
                for hs in node_handles.values():
                    for h in hs[4]:
                        result.prune_bcast_overlap_seconds += (
                            _window_overlap(prune_t0, prune_t1, h)
                        )
                if callable(ret):
                    deferred.append(ret)
                else:
                    phase_blocks.update(ret)
            for fn in deferred:
                phase_blocks.update(fn())
        else:
            for j in range(q):
                fiber_combine(j)
            finish_span = maybe_span("finish_merge", "summa", phase=p)
            for (i, j) in list(merge_states):
                phase_blocks[(i, j)] = finish_state(i, j)
            finish_span.close()
            if phase_callback is not None:
                with maybe_span("phase_callback", "summa", phase=p):
                    phase_blocks = phase_callback(phase_blocks, p)
        for key, blk in phase_blocks.items():
            kept_slabs[key].append(blk)
        if not config.pipelined:
            comm.barrier()

    for key, slabs in kept_slabs.items():
        result.dist_c.blocks[key] = hstack_csc(slabs)
    result.link_busy_seconds = comm.link_busy_seconds() - link_busy_before
    result.transport_selections = (
        Counter(model.transport_selections) - sel_before
    )
    result.transport_demotions = model.transport_demotions - dem_before
    return result


def _phase_bounds(ncols: int, phases: int, p: int) -> tuple[int, int]:
    """Near-even column range of phase ``p`` within a local block."""
    base, extra = divmod(ncols, phases)
    lo = p * base + min(p, extra)
    return lo, lo + base + (1 if p < extra else 0)


def _phase_width(ncols: int, phases: int, p: int) -> int:
    """Column count of phase ``p`` without materializing the slab."""
    lo, hi = _phase_bounds(ncols, phases, p)
    return hi - lo
