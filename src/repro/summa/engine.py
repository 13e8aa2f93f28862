"""The distributed SpGEMM engine: Sparse SUMMA and Pipelined Sparse SUMMA.

One engine implements both §II's classic bulk-synchronous Sparse SUMMA and
§III's Pipelined Sparse SUMMA; a :class:`SummaConfig` selects the behavior:

* ``pipelined=False, use_gpu=False, kernel="heap", merge="multiway"`` is
  original HipMCL's expansion;
* ``pipelined=True, use_gpu=True, kernel="hybrid", merge="binary"`` is the
  paper's optimized expansion.

Execution model: every rank's program runs in one address space against
real submatrices, while each rank's CPU/GPU :class:`ResourceTimeline`
advances by modeled durations.  A multiply runs in two passes.

* The **numeric pass** runs once, block-major, at full block-column
  width whatever the phase count: for each block column j and each
  block i it computes the products A_ik·B_kj in k order, pushes them
  through that block's merge schedule and finishes the block; once the
  column's q blocks are finished, ``prune_column`` prunes it.  At most
  one merge schedule and one block column of unpruned output are live
  at a time.  The pass keeps a small record per product (nnz,
  per-column flops, C's column pointer, the merge events it triggered)
  and per block (final merge events, peaks), and derives each phase's
  records from them (:meth:`_PhaseSplit.records`).
* The **pricing pass** walks the phases and replays each phase's records
  stage-major, in the order the ranks execute them: broadcasts, kernel
  choice, the GPU degradation ladder, clock charges, fault draws,
  merge-strategy labels, trace tuples, the per-column
  ``charge_column_prune`` and the overlap evidence.  Numerics never
  depend on a price, so splitting the passes changes no simulated
  figure.

Broadcasts synchronize their subcommunicator (blocking collectives); in
pipelined mode the stage-k GPU multiply runs concurrently with the
stage-(k+1) broadcasts and the CPU merge events of the binary schedule,
because nothing barriers the ranks between stages.  In classic mode a
global barrier closes every stage (bulk-synchronous, as HipMCL was).

Phased execution (§II, §V): when the caller passes ``phases=h > 1``, the
pricing pass charges each local B block's p-th column slice per phase,
each block column's prune as soon as its phase is finished (the HipMCL
driver's fused expand+prune), and A's re-broadcast every phase —
exactly the extra communication the pipelining hides.  Phases bound the
*simulated* per-process memory; every column of C is computed, merged
and pruned independently of the others, so the host computes it once,
and the result is the one-phase result bit for bit.
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
from ..sparse import CSCMatrix, block_of_csc, hstack_csc
from ..spgemm.esc import spgemm_esc
from ..spgemm.hashspgemm import hash_operation_count
from ..spgemm.heap import heap_operation_count
from ..spgemm.hybrid import KernelKind, degrade_kernel, kernel_for_work
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
    policy,
    flops: int,
    cf: float,
    gpu_ok: bool,
) -> KernelKind:
    if config.kernel == "hybrid":
        return kernel_for_work(
            flops, cf, gpu_available=config.use_gpu and gpu_ok, policy=policy
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


def _device_split(b: CSCMatrix, g: int):
    """B's column split over ``g`` devices, memoized on the slab (every
    stage and iteration that offloads a product of it reuses the split):
    the split points, the slab starts ``np.add.reduceat`` sums from (None
    when a slab is empty, which reduceat cannot express), each slab's
    width and each device's B-slab bytes."""
    from ..perf.cache import memo

    def build():
        bounds = split_columns(b.ncols, g)
        points = np.array([0] + [hi for _lo, hi in bounds], dtype=np.int64)
        widths = [hi - lo for lo, hi in bounds]
        b_at = b.indptr[points].tolist()
        b_bytes = [
            (b_at[d + 1] - b_at[d]) * 16 + (w + 1) * 8
            for d, w in enumerate(widths)
        ]
        starts = points[:-1] if min(widths) > 0 else None
        return points, starts, widths, b_bytes

    return memo(b, ("device_split", g), build)


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
    points, starts, widths, b_bytes = _device_split(b, len(devices))
    a_bytes = a.memory_bytes()
    # Every device's share from one gather at the split points; the flops
    # are integers, so the slab sums are exact in any order.
    c_at = c_indptr[points].tolist()
    if starts is not None:
        slab_flops = np.add.reduceat(per_col_flops, starts).tolist()
    else:  # more devices than columns
        slab_flops = [
            int(per_col_flops[lo:hi].sum())
            for lo, hi in zip(points[:-1], points[1:])
        ]
    h2d = d2h = 0
    worst = 0.0
    for d, dev in enumerate(devices):
        nnz = c_at[d + 1] - c_at[d]
        c_bytes = nnz * 16 + (widths[d] + 1) * 8
        dev.stage_multiply(a_bytes, b_bytes[d], c_bytes)
        f = float(slab_flops[d])
        cf = f / nnz if nnz else 1.0
        worst = max(
            worst, spec.gpu_spgemm_time(kind, f, cf, a_bytes + b_bytes[d])
        )
        h2d += a_bytes + b_bytes[d]
        d2h += c_bytes
    return worst, h2d, d2h


#: Sentinel for ``summa_multiply(merge_injector=...)``: "not passed" means
#: inherit ``injector`` (the common case); an explicit None disarms the
#: merge fault site (the resilience policy's ``degrade_merge=False``).
_INHERIT = object()


class _RankMergeState:
    """One block's merge schedule in the numeric pass.

    ``push`` and ``finish`` return the merge events that call triggered —
    all the pricing pass needs of the schedule.
    """

    def __init__(self, shape, merge_kind: str, merge_fn=None):
        self.schedule = SCHEDULES[merge_kind](shape, merge_fn)
        self._seen = 0

    def _new_events(self, events) -> tuple:
        new = tuple(events[self._seen :])
        self._seen = len(events)
        return new

    def push(self, triples: TripleList) -> tuple:
        self.schedule.push(triples)
        return self._new_events(self.schedule.events)

    def finish(self):
        outcome = self.schedule.finish()
        return outcome, self._new_events(outcome.events)


@dataclass(frozen=True)
class _BlockRecord:
    """What the pricing pass needs of one finished block."""

    finish_events: tuple
    operations: float
    peak_event_elements: int
    peak_resident_elements: int
    #: Resident elements before the final merge: the partials the fiber
    #: combine ships to the block's home rank.
    combine_elements: int
    #: Output nonzeros before the prune (the prune's charge).
    nnz: int


def _block_record(outcome, finish_events, combine: int) -> _BlockRecord:
    return _BlockRecord(
        tuple(finish_events), outcome.operations,
        outcome.peak_event_elements, outcome.peak_resident_elements,
        combine, len(outcome.result),
    )


class _Sized:
    """A merge-schedule input that is only its length.

    The schedules' accounting (events, operations, peaks) reads nothing
    but ``len`` of the lists, so replaying one on sizes gives exactly what
    the real lists would.
    """

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = int(n)

    def __len__(self) -> int:
        return self.n


def _replay(kind: str, shape, lists, merge_fn):
    """Run the ``kind`` merge schedule over ``lists``: the merge events
    each push triggered, and the finished block's record."""
    schedule = SCHEDULES[kind](shape, merge_fn)
    pushed = []
    for lst in lists:
        seen = len(schedule.events)
        schedule.push(lst)
        pushed.append(tuple(schedule.events[seen:]))
    combine = schedule.peak_resident
    seen = len(schedule.events)
    outcome = schedule.finish()
    return pushed, _block_record(outcome, outcome.events[seen:], combine)


@dataclass(frozen=True)
class _PhaseSplit:
    """One block column's phase split, as the numeric pass sees it: what
    it needs to derive each phase's pricing records from the full-width
    products and merges."""

    #: Phase p covers the block column's columns [bounds[p], bounds[p+1]).
    bounds: np.ndarray
    #: The phase of every column.
    col_phase: np.ndarray
    #: ``slab_nnz[k, p]``: nonzeros of B_kj's phase-p slab.
    slab_nnz: np.ndarray

    @classmethod
    def of(cls, col_blocks: list[CSCMatrix], phases: int) -> "_PhaseSplit":
        """The split of the block column holding ``col_blocks`` (B_kj for
        k = 0…q−1)."""
        w = col_blocks[0].ncols
        bounds = [_phase_bounds(w, phases, p)[0] for p in range(phases)]
        bounds = np.array(bounds + [w], dtype=np.int64)
        return cls(
            bounds,
            np.repeat(np.arange(phases), np.diff(bounds)),
            np.array([np.diff(b.indptr[bounds]) for b in col_blocks]),
        )

    def counting(self, merge, sizes: list):
        """``merge``, appending each output's nonzeros per phase to
        ``sizes`` (merging is column-wise, so a phase's merge output is
        the full-width output restricted to the phase's columns)."""
        phases = len(self.bounds) - 1

        def merge_fn(lists):
            out = merge(lists)
            sizes.append(
                np.bincount(self.col_phase[out.rows], minlength=phases)
                .tolist()
            )
            return out

        return merge_fn

    def short_phases(self, ks: list[int]) -> list[int]:
        """Phases in which a product of ``ks`` has an empty slab, so the
        phase pushes fewer products than the full width."""
        if not ks:
            return []
        return np.flatnonzero((self.slab_nnz[ks] == 0).any(axis=0)).tolist()

    def rows_of(self, product: CSCMatrix, p: int) -> TripleList:
        """A row-major product restricted to phase ``p``'s columns of C."""
        lo, hi = int(self.bounds[p]), int(self.bounds[p + 1])
        return TripleList.from_csc(
            block_of_csc(product, lo, hi, 0, product.ncols), copy=False
        )

    def records(self, p, kind, nrows, records, merged, short_lists):
        """Phase ``p``'s pricing records of one block: ``[(k, product
        record)]`` and the block's :class:`_BlockRecord`.

        A product is priced iff its slab is non-empty; its ``nnz``,
        per-column flops and column pointer are the full-width ones sliced
        to the phase's columns (the pointer is not rebased: the pricing
        reads only differences of it).  The merge events and peaks come
        from replaying the schedule on sizes, each merge output taking the
        phase's share of the matching full-width output (``merged``).
        When the phase pushes fewer products, the groups differ, so the
        schedule runs on the column-filtered products (``short_lists``).
        """
        lo, hi = int(self.bounds[p]), int(self.bounds[p + 1])
        if short_lists is None:
            lists = [
                _Sized(c_indptr[hi] - c_indptr[lo])
                for _k, _nnz, _flops, c_indptr, _ev in records
            ]
            outputs = iter([sizes[p] for sizes in merged])

            def merge_fn(group):
                return _Sized(next(outputs))
        else:
            records = [r for r in records if self.slab_nnz[r[0], p]]
            lists = short_lists

            def merge_fn(group):
                return merge_lists(group, copy=False)

        pushed, block = _replay(kind, (hi - lo, nrows), lists, merge_fn)
        return [
            (k, (len(lst), per_col[lo:hi], c_indptr[lo : hi + 1], events))
            for (k, _nnz, per_col, c_indptr, _ev), lst, events in zip(
                records, lists, pushed
            )
        ], block


def _numeric_merge(lists, budget_bytes):
    """The merge schedules' numeric engine.

    Every label runs the same engine, so which name is called here is
    attribution only: the label planned without the recovery rung, which
    the pricing pass alone knows.
    """
    from .phases import plan_merge_strategy

    label = plan_merge_strategy(
        sum(len(t) for t in lists), lists[0].shape, budget_bytes=budget_bytes
    )
    if label == "serial":
        return merge_lists(lists, copy=False)
    return spkadd_merge(lists, strategy=label)


def _numeric_pass(
    dist_a: DistributedCSC,
    dist_b: DistributedCSC,
    phases: int,
    merge_kind: str,
    budget_bytes: int | None,
    prune_column,
    executor,
):
    """The numeric pass of one multiply: block-major, at full block-column
    width, once whatever the phase count.

    For each block column j and block i it computes the products
    A_ik·B_kj whose operands are non-empty, pushes them through the
    block's merge schedule in k order, finishes the block and, once the
    column's q blocks are done, calls ``prune_column(cols, j)``.  Every
    column of C is computed, merged and pruned independently of the
    others, so the result cannot depend on the phase split.

    Returns the kept blocks by ``(i, j)`` (row-major), and per phase p the
    pricing records: ``products[p][(k, i, j)] = (nnz, per-column flops,
    C's column pointer, merge events)`` and ``blocks[p][(i, j)]``, a
    :class:`_BlockRecord` — derived from the full-width ones by
    :meth:`_PhaseSplit.records` when ``phases > 1``.
    """
    q = dist_a.grid.q
    products: list[dict] = [{} for _ in range(phases)]
    blocks: list[dict] = [{} for _ in range(phases)]
    kept: dict[tuple[int, int], CSCMatrix] = {
        (i, j): None for i in range(q) for j in range(q)
    }

    def merge(lists):
        return _numeric_merge(lists, budget_bytes)

    for j in range(q):
        col_blocks = [dist_b.block(k, j) for k in range(q)]
        pairs = [
            (i, k)
            for i in range(q)
            for k in range(q)
            if dist_a.block(i, k).nnz and col_blocks[k].nnz
        ]
        computed = None
        if executor.workers > 1 and pairs:
            from ..parallel.work import local_multiply

            with maybe_span("gather", "summa", column=j, tasks=len(pairs)):
                handle = executor.submit_batch(
                    local_multiply,
                    [(dist_a.block(i, k), col_blocks[k]) for i, k in pairs],
                    label=f"summa column {j}",
                    attrs={"column": j},
                )
                computed = dict(zip(pairs, handle.result()))
        split = _PhaseSplit.of(col_blocks, phases) if phases > 1 else None
        cols = []
        with maybe_span("column", "summa", column=j):
            for i in range(q):
                ks = [k for ii, k in pairs if ii == i]
                merge_fn = merge
                merged: list[list[int]] = []
                # Phases whose slabs leave out a product: the schedule
                # groups differ there, so their sizes come from running
                # it on the column-filtered products (rare).
                short: dict[int, list] = {}
                if split is not None:
                    merge_fn = split.counting(merge, merged)
                    short = {p: [] for p in split.short_phases(ks)}
                shape = (col_blocks[0].ncols, dist_a.block(i, 0).nrows)
                state = _RankMergeState(shape, merge_kind, merge_fn)
                records = []
                for k in ks:
                    # Row-major: the canonical CSC of the product's
                    # transpose, which the merge adds as it is, plus the
                    # product's own column pointer for the device split.
                    if computed is not None:
                        product, c_indptr, per_col = computed.pop((i, k))
                    else:
                        product, c_indptr, per_col = spgemm_esc(
                            dist_a.block(i, k), col_blocks[k], transposed=True
                        )
                    events = state.push(
                        TripleList.from_csc(product, copy=False)
                    )
                    records.append(
                        (k, int(product.nnz), per_col, c_indptr, events)
                    )
                    for p, lists in short.items():
                        if split.slab_nnz[k, p]:
                            lists.append(split.rows_of(product, p))
                    del product
                combine = state.schedule.peak_resident
                outcome, events = state.finish()
                # Dropped, not kept: the accumulator and the output block
                # are different arrays, so a live state would hold the
                # block twice.
                del state
                blk = transpose(outcome.result.to_csc())
                if split is None:
                    for k, *record in records:
                        products[0][(k, i, j)] = tuple(record)
                    blocks[0][(i, j)] = _block_record(
                        outcome, events, combine
                    )
                else:
                    for p in range(phases):
                        products_p, blocks[p][(i, j)] = split.records(
                            p, merge_kind, shape[1], records, merged,
                            short.get(p),
                        )
                        for k, record in products_p:
                            products[p][(k, i, j)] = record
                del outcome, records
                cols.append(blk)
        if prune_column is not None:
            cols = prune_column(cols, j)
        for i, blk in enumerate(cols):
            kept[(i, j)] = blk
    return kept, products, blocks


def summa_multiply(
    dist_a: DistributedCSC,
    dist_b: DistributedCSC,
    comm: VirtualComm,
    config: SummaConfig,
    *,
    phases: int = 1,
    prune_column=None,
    charge_column_prune=None,
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

    ``prune_column(col_blocks, j)`` runs in the numeric pass, once per
    block column ``j`` of the multiply (at full width, whatever
    ``phases`` is), as soon as the column's q blocks are finished: it
    receives them as a list indexed by block row and returns the (pruned)
    blocks to keep.  It must be pure and column-wise — no clock is
    charged there.

    ``charge_column_prune(j, nnz, width)`` runs in the pricing pass, once
    per block column of each phase, with the phase's unpruned per-block
    nonzero counts and its width; the HipMCL driver charges the prune to
    the rank clocks there.  Under ``config.schedule == "static"`` (when
    not degraded to the synchronous broadcasts) it is called as soon as
    the column's final merges are charged — while the next stages'
    broadcasts are still in flight on the links — and that window is the
    ``prune_bcast_overlap_seconds`` evidence; otherwise all columns are
    charged in order after the phase's final merges.

    ``executor`` (or ``workers`` and ``backend``, resolved through
    :func:`repro.parallel.get_executor`) selects the wall-clock backend:
    with a pool executor, each block column's independent local products
    are computed across the pool as one batch before the numeric pass
    merges them — modeled clocks, traces, and fault draws are untouched,
    so every ``(backend, workers)`` combination is bit-identical to
    ``workers=1``.

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
    (:func:`~repro.summa.phases.plan_merge_strategy`) in the pricing pass;
    one engine runs behind every label, inline.  ``merge_injector``
    (defaults to ``injector``) arms the merge-memory-overrun fault site:
    an injected overrun charges the overrunning attempt's modeled time
    under the resilience account and demotes the strategy ladder for the
    rest of the run.  Draws happen once per merge event in the pricing
    pass, so injections are identical across every execution cell too.

    ``model`` (a :class:`~repro.summa.engine3d.Grid3DModel`) decides
    where the simulated time and traffic land: which tree broadcasts (or
    hybrid-transport p2p sends) carry each stage, which rank's clock each
    kernel and merge charges, and the 2D→3D redistribution plus the
    per-fiber combine around the multiply.  None is the one-layer model
    with broadcast-only delivery — the plain 2-D grid.  The numeric pass
    is the same for every model, so ``model`` changes simulated clocks
    only, never results.
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
    policy = spec.selection_policy()
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

    if merge_injector is _INHERIT:
        merge_injector = injector
    from .phases import plan_merge_strategy

    #: Recovery-ladder rung injected merge overruns have pushed the run
    #: to (one-element list: the pricing pass's fault sites write it).
    merge_rung = [0]

    # Pre-slice B's blocks per phase (local column ranges align across a
    # block column because widths are identical within it).  Slabs are
    # memoized on their source block — together with their broadcast byte
    # count, so re-expanding the same matrix (every MCL iteration revisits
    # every stage) never recomputes the slice *or* its nonzero-column scan.
    # Only the pricing pass uses them: the numeric pass multiplies whole
    # blocks.
    def phase_slab(k: int, j: int, p: int) -> tuple[CSCMatrix, int]:
        from ..perf.cache import memo

        blk = dist_b.block(k, j)
        lo, hi = _phase_bounds(blk.ncols, phases, p)

        def build():
            slab = blk.column_slab(lo, hi)
            nzc = int(np.count_nonzero(slab.column_lengths()))
            return slab, 16 * slab.nnz + 16 * nzc + 8

        return memo(blk, ("slab", lo, hi), build)

    def block_shape(i: int, j: int, p: int) -> tuple[int, int]:
        # The phase's share of a block, in the row-major form it is merged.
        return (
            _phase_width(dist_b.block(0, j).ncols, phases, p),
            dist_a.block(i, 0).nrows,
        )

    # -- pricing pass: stage-major ------------------------------------------
    # The static schedule walks the whole expansion as one flat sequence
    # of nodes, node n = p·q + k being stage k of phase p, across phase
    # boundaries: node n+2's transfers are posted the moment node n's
    # slabs are consumed, so the last stage of phase p overlaps the first
    # broadcasts of phase p+1, and the per-column prune between them runs
    # while those broadcasts are on the wires.  `node_consumed[n]` gates
    # the double buffer: issue(s) waits for consumed(s-2), bounding live
    # slabs to the two stages `overlap_window` granted.  The model's
    # channels are shared across stages, so stage k+1's row-i tree
    # serializes behind stage k's on the same link.
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

    def charge_merges(events, clock, after, rank, shape, p, stage=None):
        """Plan, count and charge merge events on ``rank`` from ``after``."""
        where = {"phase": p} if stage is None else {"phase": p, "stage": stage}
        for ev in events:
            strategy = plan_merge_strategy(
                ev.input_total, shape,
                budget_bytes=overlap_budget_bytes, rung=merge_rung[0],
            )
            result.merge_strategy_selections[strategy] += 1
            if tracer is not None:
                tracer.metric(
                    "merge.strategy", ev.input_total, strategy=strategy,
                    k=len(ev.input_sizes),
                )
                tracer.count(f"merge.{strategy}")
            dur = spec.merge_time(ev.operations, config.threads)
            if merge_injector is not None and merge_injector.merge_fault():
                # Injected merge-memory overrun: the attempt's modeled
                # time is wasted, and the strategy ladder degrades for the
                # rest of the run.
                clock.cpu.schedule(
                    max(clock.cpu.free_at, after), dur, RESILIENCE_ACCOUNT
                )
                result.merge_demotions += 1
                merge_rung[0] = min(
                    merge_rung[0] + 1, len(STRATEGY_LADDER) - 1
                )
                if tracer is not None:
                    tracer.instant(
                        "fault.merge_overrun", "resilience", rank=rank,
                        **where,
                    )
            end = clock.cpu.schedule(
                max(clock.cpu.free_at, after), dur, "merge"
            )
            if trace is not None and stage is not None:
                trace.append((rank, p, stage, "merge", end - dur, end))

    def price_product(rank, p, k, a_blk, b_blk, ready, record) -> float:
        """Charge one stage product; returns when its output is on the
        host (the time its merge events may start)."""
        c_nnz, per_col, c_indptr, _events = record
        clock = comm.clocks[rank]
        flops = int(per_col.sum())
        cf = flops / c_nnz if c_nnz > 0 else 1.0
        result.stage_flops += flops
        gpu_ok = config.use_gpu and devices is not None
        kind = _pick_kernel(config, policy, flops, cf, gpu_ok)
        while kind.on_gpu:
            try:
                kern_s, h2d, d2h = _gpu_stage_time(
                    spec, kind, a_blk, b_blk, c_indptr, devices[rank], per_col,
                )
                break
            except (DeviceMemoryError, KernelLaunchError) as exc:
                # Degradation ladder: the device failed this stage
                # (genuine OOM or injected transient), so the multiply
                # moves down a rung.  Only injected faults charge the
                # aborted staging — a genuine OOM is caught before any
                # copy.
                result.gpu_fallbacks += 1
                if tracer is not None:
                    tracer.instant(
                        "fault.gpu_fallback", "resilience",
                        rank=rank, phase=p, stage=k, kernel=kind.value,
                        injected=isinstance(exc, InjectedFault),
                    )
                if isinstance(exc, InjectedFault):
                    waste = spec.h2d_time(a_blk.memory_bytes())
                    start = max(clock.cpu.free_at, clock.gpu.free_at, ready)
                    clock.cpu.schedule(start, waste, RESILIENCE_ACCOUNT)
                    clock.gpu.schedule(start, waste, RESILIENCE_ACCOUNT)
                kind = degrade_kernel(kind)
        if (
            injector is not None
            and kind is KernelKind.CPU_HASH
            and injector.cpu_kernel_fault()
        ):
            # Injected host hash-table overflow: charge the aborted hash
            # attempt, demote to the heap.
            ops = _cpu_kernel_ops(kind, a_blk, b_blk, c_nnz, per_col, flops)
            clock.cpu.schedule(
                ready,
                spec.cpu_spgemm_time(kind, ops, config.threads),
                RESILIENCE_ACCOUNT,
            )
            result.kernel_demotions += 1
            if tracer is not None:
                tracer.instant(
                    "fault.kernel_demotion", "resilience",
                    rank=rank, phase=p, stage=k, kernel=kind.value,
                )
            kind = degrade_kernel(kind)
        result.kernel_selections[kind.value] += 1
        if tracer is not None:
            tracer.metric(
                "kernel_dispatch", flops, kernel=kind.value, cf=cf,
                nnz_c=c_nnz, rank=rank, phase=p, stage=k,
            )
            tracer.count(f"kernel.{kind.value}")
        if not kind.on_gpu:
            ops = _cpu_kernel_ops(kind, a_blk, b_blk, c_nnz, per_col, flops)
            dur = spec.cpu_spgemm_time(kind, ops, config.threads)
            available = clock.cpu.schedule(ready, dur, "local_spgemm")
            if trace is not None:
                trace.append(
                    (rank, p, k, "cpu_mult", available - dur, available)
                )
            return available
        # Transfer occupies both host and device; the CPU is released as
        # soon as the inputs are on the device (§III), the GPU continues
        # into the kernel.
        start = max(clock.cpu.free_at, clock.gpu.free_at, ready)
        h2d_s = spec.h2d_time(h2d)
        clock.cpu.schedule(start, h2d_s, "h2d")
        clock.gpu.schedule(start, h2d_s, "h2d")
        mult_end = clock.gpu.schedule(clock.gpu.free_at, kern_s, "local_spgemm")
        done = clock.gpu.schedule(
            clock.gpu.free_at, spec.d2h_time(d2h), "d2h"
        )
        if trace is not None:
            trace.extend(
                (
                    (rank, p, k, "h2d", start, start + h2d_s),
                    (rank, p, k, "gpu_mult", mult_end - kern_s, mult_end),
                    (rank, p, k, "d2h", mult_end, done),
                )
            )
        result.h2d_bytes += h2d
        result.d2h_bytes += d2h
        if not config.pipelined and done > clock.cpu.free_at:
            # Bulk-synchronous: the CPU blocks on the device result
            # before doing anything else.
            clock.cpu.idle += done - clock.cpu.free_at
            clock.cpu.free_at = done
        return done

    kept, phase_products, phase_blocks = _numeric_pass(
        dist_a, dist_b, phases, config.merge, overlap_budget_bytes,
        prune_column, executor,
    )
    if static_active:
        for n in range(min(2, n_nodes)):
            issue_node(n)

    for p in range(phases):
        products = phase_products[p]
        blocks = phase_blocks[p]
        input_bytes_peak = np.zeros((q, q), dtype=np.int64)
        last_available = np.zeros((q, q))
        for k in range(q):
            slabs, slab_bytes = stage_slabs(k, p)
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
            # The stage's pricing — its products and the merge events
            # they triggered — is one main-lane span.
            merge_span = maybe_span("merge", "summa", phase=p, stage=k)
            stage_available = 0.0
            stage_ranks = model.stage_ranks(k)
            for i in range(q):
                a_blk = dist_a.block(i, k)
                ranks_i = stage_ranks[i]
                for j in range(q):
                    record = products.pop((k, i, j), None)
                    if record is None:  # an empty operand: no multiply
                        continue
                    rank = ranks_i[j]
                    # Under the static schedule a local multiply cannot
                    # start before its inputs are off the wires; the sync
                    # schedule already blocked the CPUs in the collective,
                    # so 0.0 reproduces its numbers bit-for-bit.
                    ready = 0.0
                    if static_active:
                        ready = max(a_handles[i].end, b_handles[j].end)
                    available = price_product(
                        rank, p, k, a_blk, slabs[j], ready, record
                    )
                    stage_available = max(stage_available, available)
                    last_available[i, j] = max(
                        last_available[i, j], available
                    )
                    charge_merges(
                        record[3], comm.clocks[rank], available, rank,
                        block_shape(i, j, p), p, k,
                    )
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

        # -- phase wrap-up: fiber combine, final merges, prune charges ------
        def finish_block(i: int, j: int) -> None:
            # Final merges run on the block's post-combine owner: the
            # home cell the fiber combine returned the partials to.
            rank = model.home_rank(i, j)
            rec = blocks[(i, j)]
            charge_merges(
                rec.finish_events, comm.clocks[rank],
                float(last_available[i, j]), rank, block_shape(i, j, p), p,
            )
            result.merge_operations += rec.operations
            result.merge_peak_event_elements = max(
                result.merge_peak_event_elements, rec.peak_event_elements
            )
            result.merge_peak_resident_elements = max(
                result.merge_peak_resident_elements,
                rec.peak_resident_elements,
            )
            result.max_rank_resident_bytes = max(
                result.max_rank_resident_bytes,
                rec.peak_resident_elements * 24
                + int(input_bytes_peak[i, j]),
            )

        def fiber_combine(j: int) -> None:
            model.charge_fiber_combine(
                comm, j,
                sum(blocks[(i, j)].combine_elements for i in range(q)),
                config.threads,
            )

        def charge_prune(j: int) -> None:
            charge_column_prune(
                j, [blocks[(i, j)].nnz for i in range(q)],
                _phase_width(dist_b.block(0, j).ncols, phases, p),
            )

        if static_active and charge_column_prune is not None:
            # Each block column's wrap-up is charged as soon as its own
            # merges are done, while the next stages' broadcasts (already
            # posted above, up to two stages into phase p+1) are still in
            # flight on the links.
            for j in range(q):
                col_ranks = grid.col_members(j)
                # The column's inter-phase prune stage spans its final
                # merges *and* the prune: that whole window runs while
                # the posted next-phase broadcasts drain on the links, so
                # the overlap evidence opens when the column's wrap-up
                # starts, not after its merges land.
                prune_t0 = min(comm.clocks[r].cpu.free_at for r in col_ranks)
                # The per-fiber all-to-all combine returns this column's
                # c partial slabs to their 2-D owners before its final
                # merges and prune.
                fiber_combine(j)
                with maybe_span("finish_merge", "summa", phase=p, column=j):
                    for i in range(q):
                        finish_block(i, j)
                charge_prune(j)
                prune_t1 = max(comm.clocks[r].cpu.free_at for r in col_ranks)
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
        else:
            for j in range(q):
                fiber_combine(j)
            with maybe_span("finish_merge", "summa", phase=p):
                for i in range(q):
                    for j in range(q):
                        finish_block(i, j)
            if charge_column_prune is not None:
                for j in range(q):
                    charge_prune(j)
        if not config.pipelined:
            comm.barrier()

    # One full-width piece per block: the numeric pass no longer phases.
    # The copy keeps ``hstack_csc`` the assembly call that
    # bench/layers.py times as ``sparse.hstack``.
    for key, blk in kept.items():
        result.dist_c.blocks[key] = hstack_csc([blk])
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
