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

* The **numeric pass** (:func:`_numeric_pass`) runs once, block-major,
  at full block-column width whatever the phase count: each block
  column j is one :func:`compute_column` task, and the q tasks are one
  executor batch on a pool.  The task runs the column's q blocks in i
  order (:func:`compute_block`: block i computes the products A_ik·B_kj
  in k order, pushes them through its merge schedule and finishes), then
  ``prune_column`` prunes the column and each kept block is sorted.
  Products and merges keep the rows of a column in the order the kernel
  and the addition write them, so a block is sorted once, after the
  prune has dropped most of it.  At most one block column of
  unpruned output per executor worker is live at a time, and one merge
  schedule per worker.  It keeps a small record per product and per
  block and phase, deriving the phases' merge events from the
  full-width pass (:meth:`_PhaseSplit.events`).
* The **pricing pass** prices every product of every phase from integer
  counts (:class:`_PricePlan`: broadcast bytes, the §III-A device
  split, column lengths and row counts over B's blocks at the phase
  bounds, A's per-stage bytes and column supports, and one vectorised
  kernel pick and device price per multiply), then :class:`_Pricer`
  replays each phase's records stage-major, in the order the ranks
  execute them: transfers, the GPU degradation ladder, clock charges,
  the fault schedule drawn before it (:meth:`_PricePlan.draw_faults`),
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
pricing pass charges each local B block's p-th column range per phase,
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

from ..machine.spec import MachineSpec, SUMMIT_LIKE
from ..merge import SCHEDULES, TripleList, merge_lists
from ..merge.spkadd import STRATEGY_LADDER, spkadd_merge
from ..mpi.comm import RESILIENCE_ACCOUNT, VirtualComm
from ..perf.esc import sort_rows
from ..sparse import CSCMatrix, hstack_csc
from ..spgemm.esc import spgemm_esc
from ..spgemm.hashspgemm import hash_operations
from ..spgemm.heap import heap_operations
from ..spgemm.hybrid import (
    KERNEL_KINDS, KernelKind, degrade_kernel, kernels_for_work,
)
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
    #: schedule, every worker count stays bit-identical to serial.
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
    #: identical at every worker count.
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
    #: Nonzeros of the product before ``prune_column``.
    exact_nnz: int = 0


def _pick_kernels(
    config: SummaConfig,
    policy,
    flops: np.ndarray,
    cf: np.ndarray,
) -> np.ndarray:
    """Every product's kernel as a :data:`KERNEL_KINDS` code."""
    if config.kernel == "hybrid":
        return kernels_for_work(
            flops, cf, gpu_available=config.use_gpu, policy=policy
        )
    kind = _KERNEL_NAMES[config.kernel]
    if kind.on_gpu and not config.use_gpu:
        kind = KernelKind.CPU_HASH  # forced-GPU config without a usable GPU
    return np.full(np.shape(flops), KERNEL_KINDS.index(kind))


def _range_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of ``values`` along its last axis over the ranges between
    consecutive ``bounds`` (non-decreasing, from 0 to its length) — exact
    for integers.  ``np.add.reduceat`` at the range starts, with the
    empty ranges it cannot express set to zero."""
    pad = np.zeros(values.shape[:-1] + (1,), dtype=np.int64)
    sums = np.add.reduceat(
        np.concatenate((values, pad), axis=-1), bounds[:-1], axis=-1
    )
    sums[..., bounds[:-1] == bounds[1:]] = 0
    return sums


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
    #: ``slab_nnz[k, p]``: nonzeros of B_kj's phase-p slab.
    slab_nnz: np.ndarray

    @classmethod
    def of(cls, col_blocks: list[CSCMatrix], phases: int) -> "_PhaseSplit":
        """The split of the block column holding ``col_blocks`` (B_kj for
        k = 0…q−1)."""
        bounds = _phase_bounds(col_blocks[0].ncols, phases)
        return cls(
            bounds, np.array([np.diff(b.indptr[bounds]) for b in col_blocks])
        )

    def counting(self, merge, sizes: list):
        """``merge``, appending each output's nonzeros per phase to
        ``sizes`` (merging is column-wise, so a phase's merge output is
        the full-width output restricted to the phase's columns)."""

        def merge_fn(lists):
            out = merge(lists)
            sizes.append(np.diff(out.indptr[self.bounds]).tolist())
            return out

        return merge_fn

    def short_phases(self, ks: list[int]) -> list[int]:
        """Phases in which a product of ``ks`` has an empty slab, so the
        phase pushes fewer products than the full width."""
        if not ks:
            return []
        return np.flatnonzero((self.slab_nnz[ks] == 0).any(axis=0)).tolist()

    def columns_of(self, product: CSCMatrix, p: int) -> TripleList:
        """A product restricted to phase ``p``'s columns."""
        lo, hi = int(self.bounds[p]), int(self.bounds[p + 1])
        return TripleList.from_csc(product.column_slab(lo, hi), copy=False)

    def events(self, p, kind, nrows, records, merged, short_lists):
        """Phase ``p``'s merge events of one block: per product of
        ``records`` (``(k, per_col, c_indptr)``), the events its push
        triggered — None when its phase-``p`` slab is empty, so the
        phase does not price it — and the block's :class:`_BlockRecord`.

        The events and peaks come from replaying the schedule on sizes,
        each product taking its nonzeros in the phase's columns and each
        merge output the phase's share of the matching full-width output
        (``merged``).  When the phase pushes fewer products, the groups
        differ, so the schedule runs on the column-filtered products
        (``short_lists``).
        """
        lo, hi = int(self.bounds[p]), int(self.bounds[p + 1])
        if short_lists is not None:
            pushed, block = _replay(
                kind, (nrows, hi - lo), short_lists,
                lambda group: merge_lists(group, copy=False),
            )
            pushed = iter(pushed)
            return [
                next(pushed) if self.slab_nnz[r[0], p] else None
                for r in records
            ], block
        outputs = iter([sizes[p] for sizes in merged])
        return _replay(
            kind, (nrows, hi - lo),
            [_Sized(r[2][hi] - r[2][lo]) for r in records],
            lambda group: _Sized(next(outputs)),
        )


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


def compute_block(operands, shape, split, merge_kind, budget_bytes):
    """One block of the numeric pass — :func:`compute_column` runs q, one
    per block row — as a pure function of its operands.

    ``operands`` lists ``(k, A_ik, B_kj)`` for the stage products whose
    operands are non-empty, in k order; ``shape`` is the block's shape;
    ``split`` is the block column's :class:`_PhaseSplit`, None for one
    phase.  It computes the products, pushes them through the block's
    merge schedule in k order and finishes the block.  Nothing is sorted
    here: the products stay in the order the kernel wrote them, the merge
    adds them as they are, and the block leaves duplicate-free per column
    with its rows in merge order (:func:`compute_column` sorts it after
    the prune).

    Returns ``(block, products, events, records)``: ``products`` holds
    ``(k, per-column flops, C's column pointer)`` per product;
    ``events[p]`` the merge events each product's push triggered in phase
    p — None where its phase-p slab is empty, so the phase does not price
    it — and ``records[p]`` the block's :class:`_BlockRecord` in phase p.
    When there are several phases, both are derived from the full-width
    pass by :meth:`_PhaseSplit.events`.
    """

    def merge(lists):
        return _numeric_merge(lists, budget_bytes)

    merge_fn = merge
    merged: list[list[int]] = []
    # Phases whose slabs leave out a product: the schedule groups differ
    # there, so their sizes come from running it on the column-filtered
    # products (rare).
    short: dict[int, list] = {}
    if split is not None:
        merge_fn = split.counting(merge, merged)
        short = {p: [] for p in split.short_phases([k for k, *_ in operands])}
    state = _RankMergeState(shape, merge_kind, merge_fn)
    products, pushed = [], []
    for k, a, b in operands:
        # Kernel order, which the merge adds as it is; the column pointer
        # stays for the device split.
        product, per_col = spgemm_esc(a, b, kernel_order=True)
        pushed.append(state.push(TripleList.from_csc(product, copy=False)))
        products.append((k, per_col, product.indptr))
        for p, lists in short.items():
            if split.slab_nnz[k, p]:
                lists.append(split.columns_of(product, p))
        del product
    combine = state.schedule.peak_resident
    outcome, finish_events = state.finish()
    block = outcome.result.to_csc()
    if split is None:
        return block, products, [pushed], [
            _block_record(outcome, finish_events, combine)
        ]
    events, records = [], []
    for p in range(len(split.bounds) - 1):
        phase_events, record = split.events(
            p, merge_kind, shape[0], products, merged, short.get(p)
        )
        events.append(phase_events)
        records.append(record)
    return block, products, events, records


def compute_column(j, block_tasks, prune_column):
    """One block column of the numeric pass — the task the engine
    submits, q per multiply — as a pure function of its operands.

    ``block_tasks`` holds the :func:`compute_block` arguments of the
    column's blocks in i order; once they are finished,
    ``prune_column(cols, j)`` (None keeps them) prunes the column, so no
    unpruned block leaves the task.  The prune sees every column's rows
    in merge order, so it must be an order-independent column-wise
    filter; each block it keeps is then sorted (:func:`sort_rows`, two
    counting-sort transposes over what survived), so every block leaves
    canonical.

    Returns ``(records, cols)``: per block, the ``(products, events,
    records)`` :func:`compute_block` returned with it, and the kept
    blocks in i order.
    """
    records, cols = [], []
    for task in block_tasks:
        blk, *block_records = compute_block(*task)
        cols.append(blk)
        records.append(block_records)
    if prune_column is not None:
        cols = prune_column(cols, j)
    return records, [sort_rows(blk) for blk in cols]


def run_tasks(executor, fn, tasks: list, label: str) -> list:
    """``[fn(*task) for task in tasks]``: one batch on a pool
    ``executor``, inline in order at one worker — what the serial
    executor would run, without entering :mod:`repro.parallel`, since a
    one-worker run has no pool to show."""
    if executor.workers > 1:
        return executor.submit_batch(fn, tasks, label=label).result()
    return [fn(*task) for task in tasks]


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

    Each block column j is one :func:`compute_column` task — its q blocks
    in i order, then ``prune_column(cols, j)`` — and the q tasks run as
    one batch on a pool ``executor``, inline in j order at one worker.
    Every column of C is computed, merged and pruned independently of the
    others, so the result cannot depend on the phase split or on the
    executor; a worker holds one unpruned column at a time.

    Returns the kept blocks by ``(i, j)`` (row-major) and the pricing
    records: ``products[(k, i, j)] = (per-column flops, C's column
    pointer, merge events per phase)`` at full width — a phase's events
    are None where it does not price the product — and per phase p
    ``blocks[p][(i, j)]``, a :class:`_BlockRecord`.
    """
    q = dist_a.grid.q
    for dist in (dist_a, dist_b):
        for blk in dist.blocks.values():
            # A_ik is read by every column task and B_kj by every block
            # of column j: fill their lazy caches here, before the tasks
            # run concurrently.
            blk.column_lengths()
            blk.min_value()
    tasks = []
    for j in range(q):
        col_blocks = [dist_b.block(k, j) for k in range(q)]
        split = _PhaseSplit.of(col_blocks, phases) if phases > 1 else None
        block_tasks = []
        for i in range(q):
            operands = [
                (k, dist_a.block(i, k), b)
                for k, b in enumerate(col_blocks)
                if dist_a.block(i, k).nnz and b.nnz
            ]
            shape = (dist_a.block(i, 0).nrows, col_blocks[0].ncols)
            block_tasks.append(
                (operands, shape, split, merge_kind, budget_bytes)
            )
        tasks.append((j, block_tasks, prune_column))
    with maybe_span("columns", "summa", tasks=q):
        done = run_tasks(executor, compute_column, tasks, "summa columns")
    products: dict[tuple[int, int, int], tuple] = {}
    blocks: list[dict] = [{} for _ in range(phases)]
    for j, (records, _cols) in enumerate(done):
        for i, (block_products, events, block_records) in enumerate(records):
            for p, record in enumerate(block_records):
                blocks[p][(i, j)] = record
            for (k, per_col, c_indptr), phase_events in zip(
                block_products, zip(*events)
            ):
                products[(k, i, j)] = (per_col, c_indptr, phase_events)
    kept = {(i, j): done[j][1][i] for i in range(q) for j in range(q)}
    return kept, products, blocks


class _PricePlan:
    """One multiply's stage products priced from integer counts.

    Everything the pricing pass reads of a B phase slab is a count over
    the block's own arrays at the phase bounds — broadcast bytes, the
    device split and per-device B bytes, non-empty columns, row counts
    for the p2p payloads — so no slab is built.  Every product's
    per-(phase, device) nonzeros and flops come from one gather of the
    products' column pointers and one ``reduceat`` of their per-column
    flops at all split points (integers: exact in any order); the kernel
    pick and the §III-A device prices are then one vectorised pass over
    the multiply, in the scalar formulas' IEEE operations, so every
    price is the scalar formula's on the materialised slab, bit for bit.

    ``records[p][(k, i, j)]`` is ``(nnz(C), flops, cf, kind, gpu, merge
    events, product index)`` for each product phase p prices, in plain
    Python numbers.  ``gpu`` is the device price ``(kernel seconds, h2d,
    d2h)`` of a GPU kind (None for a CPU kind); whether the attempt
    succeeds is the fault schedule's (:meth:`draw_faults`).
    """

    def __init__(self, dist_a, dist_b, products, phases, config, model):
        self.spec = config.spec
        self.dist_b = dist_b
        #: Where a GPU share does not fit its device (None without GPUs).
        self.oom = None
        self.phases = phases
        self.keys = list(products)
        self.products = products
        q = dist_a.grid.q
        self.a_rows = [dist_a.block(i, 0).nrows for i in range(q)]
        # What each stage's deliveries read of A depends on k alone.
        self.a_counts = [model.a_counts(dist_a, k) for k in range(q)]
        g = config.gpus_per_process if config.use_gpu else 1
        # Only the p2p-pricing transports read the B slabs' row counts.
        points, widths, b_bytes = self._count_slabs(
            phases, g, model.transport in ("hybrid", "p2p")
        )
        self.records: list[dict] = [{} for _ in range(phases)]
        if not self.keys:
            return
        ks, _is, js = np.array(self.keys, dtype=np.int64).T
        arrays = list(products.values())
        # Every product's arrays end to end: one gather of the column
        # pointers, and — the split points tile each product's columns —
        # one reduceat of the per-column flops.
        ncols = np.array([len(arr[0]) for arr in arrays])
        at = points[js]
        nnz_d = np.diff(
            np.concatenate([arr[1] for arr in arrays])[
                at + (np.cumsum(ncols + 1) - ncols - 1)[:, None, None]
            ],
            axis=2,
        )
        starts = at[:, :, :-1] + (np.cumsum(ncols) - ncols)[:, None, None]
        flops_d = _range_sums(
            np.concatenate([arr[0] for arr in arrays]),
            np.append(starts.ravel(), ncols.sum()),
        ).reshape(nnz_d.shape)
        c_nnz = nnz_d.sum(axis=2)
        flops = flops_d.sum(axis=2)
        cf = np.divide(flops, c_nnz, out=np.ones(c_nnz.shape), where=c_nnz > 0)
        codes = _pick_kernels(config, config.spec.selection_policy(), flops, cf)
        gpu = [[None] * phases for _ in self.keys]
        if config.use_gpu:
            self.a_bytes = [
                dist_a.block(i, k).memory_bytes() for k, i, _j in self.keys
            ]
            gpu = self._device_prices(
                codes, nnz_d, flops_d, b_bytes[ks, js], widths[js]
            )
        c_nnz, flops, cf = c_nnz.tolist(), flops.tolist(), cf.tolist()
        codes = codes.tolist()
        for m, key in enumerate(self.keys):
            for p, events in enumerate(products[key][2]):
                if events is not None:
                    self.records[p][key] = (
                        c_nnz[m][p], flops[m][p], cf[m][p],
                        KERNEL_KINDS[codes[m][p]], gpu[m][p], events, m,
                    )

    def _count_slabs(self, phases: int, g: int, row_counts: bool):
        """Count B's phase slabs over its blocks' column pointers.

        Sets ``bounds[j]`` (phase p covers block column j's columns
        ``[bounds[j][p], bounds[j][p+1])``), ``bcast_bytes[p][k][j]``
        (B_kj's phase-p broadcast payload), ``nzc[k][j][p]`` (its
        non-empty columns) and, when asked, ``rows[k][j][p]`` (its
        per-row nonzeros).  Returns per block column j the device split
        points ``(phases, g + 1)`` and widths ``(phases, g)``, and per
        ``(k, j)`` each device's B-slab bytes ``(phases, g)``.
        """
        dist_b = self.dist_b
        q = dist_b.grid.q
        self.bounds: list[list[int]] = []
        slab_nnz = np.zeros((q, q, phases), dtype=np.int64)
        nzc = np.zeros((q, q, phases), dtype=np.int64)
        points, widths, b_bytes = [], [], []
        self.rows = [[None] * q for _ in range(q)] if row_counts else None
        for j in range(q):
            bounds = _phase_bounds(dist_b.block(0, j).ncols, phases)
            self.bounds.append(bounds.tolist())
            # split_columns of every phase: near-even device widths.
            base, extra = np.divmod(np.diff(bounds), g)
            dev_w = base[:, None] + (np.arange(g) < extra[:, None])
            pts = np.empty((phases, g + 1), dtype=np.int64)
            pts[:, 0] = bounds[:-1]
            np.cumsum(dev_w, axis=1, out=pts[:, 1:])
            pts[:, 1:] += bounds[:-1, None]
            ip = np.stack([dist_b.block(k, j).indptr for k in range(q)])
            slab_nnz[:, j] = np.diff(ip[:, bounds], axis=1)
            nzc[:, j] = _range_sums(np.diff(ip, axis=1) > 0, bounds)
            points.append(pts)
            widths.append(dev_w)
            b_bytes.append(np.diff(ip[:, pts], axis=2) * 16 + (dev_w + 1) * 8)
            if row_counts:
                # One 2-D bincount per block: (phase, row) nonzeros.
                for k in range(q):
                    blk = dist_b.block(k, j)
                    first = np.arange(phases) * blk.nrows
                    self.rows[k][j] = np.bincount(
                        np.repeat(first, slab_nnz[k, j]) + blk.indices,
                        minlength=phases * blk.nrows,
                    ).reshape(phases, blk.nrows)
        self.bcast_bytes = (
            16 * slab_nnz + 16 * nzc + 8
        ).transpose(2, 0, 1).tolist()
        self.nzc = nzc.tolist()
        return np.stack(points), np.stack(widths), np.stack(b_bytes, axis=1)

    def _device_prices(self, codes, nnz_d, flops_d, b_bytes, widths):
        """Per (product, phase), the device price ``(kernel seconds, h2d,
        d2h)`` of a GPU kind, else None.  Keeps each device's staged bytes
        for the fault schedule: ``staged`` holds A + B and A + B + C per
        (product, phase, device), and ``oom`` where a share does not fit
        its device."""
        flops_d = flops_d.astype(np.float64)
        cf_d = np.divide(
            flops_d, nnz_d, out=np.ones(flops_d.shape), where=nnz_d > 0
        )
        in_bytes = np.array(self.a_bytes)[:, None, None] + b_bytes
        c_bytes = nnz_d * 16 + (widths + 1) * 8
        total = in_bytes + c_bytes
        kern = self.spec.gpu_spgemm_times(
            codes[:, :, None], flops_d, cf_d, in_bytes
        ).max(axis=2)
        on_gpu = np.array([kind.on_gpu for kind in KERNEL_KINDS])[codes]
        self.staged = (in_bytes, total)
        self.oom = on_gpu & (total > self.spec.gpu_memory_bytes).any(axis=2)
        prices = zip(
            kern.tolist(), in_bytes.sum(axis=2).tolist(),
            c_bytes.sum(axis=2).tolist(), on_gpu.tolist(),
        )
        return [
            [(t, h2d, d2h) if on else None for t, h2d, d2h, on in zip(*row)]
            for row in prices
        ]

    def draw_faults(self, blocks, injector, merge_injector) -> None:
        """Draw the multiply's fault schedule before it is priced.

        Sets ``gpu_faults[(m, p)]``, ``"injected"`` or ``"oom"`` for each
        product whose GPU attempt fails; ``cpu_faults``, the (m, p) whose
        CPU-hash attempt aborts; and ``merge_faults``, whether each merge
        event overruns, in the order the pricing walk consumes them (None
        without a merge injector).  ``blocks`` holds per phase the
        numeric pass's :class:`_BlockRecord` by (i, j).

        No draw reads a clock, so drawing up front consumes each site's
        stream as the walk would: products in (p, k, i, j) order, one GPU
        attempt each (every GPU rung demotes to CPU-hash), then one draw
        per CPU-hash product and one per merge event.  Without an injector
        a GPU attempt fails only where a share does not fit.
        """
        self.gpu_faults: dict[tuple[int, int], str] = {}
        self.cpu_faults: set[tuple[int, int]] = set()
        self.merge_faults = None
        if injector is None:
            if self.oom is not None:
                ms, ps = np.nonzero(self.oom)
                self.gpu_faults = dict.fromkeys(
                    zip(ms.tolist(), ps.tolist()), "oom"
                )
        else:
            hashed = []  # the products that run as CPU-hash, in walk order
            for p, records in enumerate(self.records):
                for key in sorted(records):
                    kind, m = records[key][3], records[key][-1]
                    if kind.on_gpu:
                        outcome = self._gpu_attempt(injector, m, p)
                        if outcome == "ok":
                            continue
                        self.gpu_faults[m, p] = outcome
                    elif kind is not KernelKind.CPU_HASH:
                        continue
                    hashed.append((m, p))
            hits = injector.faults("cpu_kernel", len(hashed))
            self.cpu_faults = {
                mp for mp, hit in zip(hashed, hits.tolist()) if hit
            }
        if merge_injector is not None:
            events = sum(
                len(record[5]) for records in self.records
                for record in records.values()
            ) + sum(
                len(rec.finish_events) for phase in blocks
                for rec in phase.values()
            )
            self.merge_faults = iter(
                merge_injector.faults("merge", events).tolist()
            )

    def _gpu_attempt(self, injector, m: int, p: int) -> str:
        """Product m's phase-p GPU attempt: per device, the bytes it holds
        once A, then B, then C of its share are on it."""
        a_bytes = self.a_bytes[m]
        in_bytes, total = (arr[m, p].tolist() for arr in self.staged)
        return injector.gpu_attempt(
            [(a_bytes, ab, abc) for ab, abc in zip(in_bytes, total)],
            self.spec.gpu_memory_bytes,
        )

    def row_counts(self, k: int, p: int) -> list | None:
        """Per block column j, the per-row nonzeros of B_kj's phase-p
        slab (None when the transport prices no p2p payload)."""
        if self.rows is None:
            return None
        return [rc[p] for rc in self.rows[k]]

    def block_shape(self, i: int, j: int, p: int) -> tuple[int, int]:
        """The shape of phase p's share of block (i, j)."""
        lo, hi = self.bounds[j][p : p + 2]
        return self.a_rows[i], hi - lo

    def cpu_ops(self, kind: KernelKind, record, p: int) -> float:
        """The CPU kernel's operation count for one product in phase p."""
        c_nnz, flops, *_rest, m = record
        key = self.keys[m]
        k, _i, j = key
        if kind is KernelKind.CPU_HEAP:
            lo, hi = self.bounds[j][p : p + 2]
            lens = self.dist_b.block(k, j).column_lengths()
            return heap_operations(self.products[key][0][lo:hi], lens[lo:hi])
        return hash_operations(flops, c_nnz, self.nzc[k][j][p])


def _window_overlap(w0: float, w1: float, h) -> float:
    """Seconds transfer ``h`` is in flight within ``[w0, w1]``."""
    return max(0.0, min(w1, h.end) - max(w0, h.start))


class _Pricer:
    """The pricing pass of one multiply (see the module docstring): it
    reads the plan's counts and records, never a block, charges
    ``comm``'s clocks through ``model`` and fills ``result``.

    The static schedule walks the whole expansion as one flat sequence of
    nodes, node n = p·q + k being stage k of phase p, across phase
    boundaries: node n+2's transfers are posted the moment node n's slabs
    are consumed, so the last stage of phase p overlaps the first
    transfers of phase p+1, and the per-column prune between them runs
    while those are on the wires.  ``node_consumed[n]`` gates the double
    buffer: issue(s) waits for consumed(s−2), bounding live slabs to the
    two stages ``overlap_window`` granted.  The model's channels are
    shared across stages, so stage k+1's row-i tree serializes behind
    stage k's on the same link.  Under the sync schedule (``static``
    False) every stage posts blocking collectives when it starts.
    """

    def __init__(
        self, plan, blocks, comm, model, config, result, *, grid,
        budget_bytes, charge_column_prune, static,
    ):
        self.plan = plan
        #: Per phase, the numeric pass's :class:`_BlockRecord` by (i, j).
        self.blocks = blocks
        self.comm = comm
        self.clocks = comm.clocks
        self.model = model
        self.config = config
        self.spec = config.spec
        self.result = result
        self.grid = grid
        self.q = grid.q
        self.budget_bytes = budget_bytes
        self.charge_column_prune = charge_column_prune
        self.static = static
        #: Passive: it never touches rank clocks, fault draws or results.
        self.tracer = current_tracer()
        self.trace = result.trace if config.trace else None
        self.merge_rung = 0  # where injected merge overruns pushed the ladder
        self.n_nodes = plan.phases * self.q
        self.node_handles: dict[int, tuple] = {}
        self.node_consumed: dict[int, float] = {}
        self.issue_base = (
            max(c.now for c in comm.clocks) if static else 0.0
        )

    def run(self) -> None:
        q, charge_prune = self.q, self.charge_column_prune
        if self.static:
            for n in range(min(2, self.n_nodes)):
                self.issue_node(n)
        for p in range(self.plan.phases):
            records = self.plan.records[p]
            #: Per block, the phase's largest stage input bytes and when
            #: its last product was on the host.
            self.input_peak = np.zeros((q, q), dtype=np.int64)
            self.last_available = np.zeros((q, q))
            for k in range(q):
                self.price_stage(p, k, records)
            # -- phase wrap-up: fiber combine, final merges, prune charges
            if self.static and charge_prune is not None:
                # Each block column's wrap-up is charged as soon as its
                # own merges are done, while the next stages' transfers
                # (posted up to two stages into phase p+1) are in flight.
                for j in range(q):
                    self.wrap_up_column(p, j)
            else:
                for j in range(q):
                    self.fiber_combine(p, j)
                with maybe_span("finish_merge", "summa", phase=p):
                    for i in range(q):
                        for j in range(q):
                            self.finish_block(p, i, j)
                if charge_prune is not None:
                    for j in range(q):
                        self.charge_prune(p, j)
            if not self.config.pipelined:
                self.comm.barrier()

    # -- transfers ----------------------------------------------------------

    def post_stage(self, k: int, p: int, gate=None):
        plan = self.plan
        with maybe_span(
            "broadcast", "summa", phase=p, stage=k,
            schedule="sync" if gate is None else "static",
        ) as bsp:
            posted = self.model.post_stage(
                self.comm, k, p, plan.a_counts[k], plan.row_counts(k, p),
                plan.bcast_bytes[p][k], gate, self.trace,
            )
            bsp.set(
                bytes_a=int(posted[2].sum()), bytes_b=int(posted[3].sum())
            )
        return posted

    def issue_node(self, n: int) -> None:
        p, k = divmod(n, self.q)
        self.node_handles[n] = self.post_stage(
            k, p, gate=self.node_consumed.get(n - 2, self.issue_base)
        )

    # -- one stage ------------------------------------------------------------

    def price_stage(self, p: int, k: int, records: dict) -> None:
        """Charge stage k of phase p: its transfers, every product and the
        merge events each triggered."""
        q, static, clocks = self.q, self.static, self.clocks
        node = p * q + k
        window_t0 = 0.0
        if static:
            # Transfers were posted on the links one or two stages ago;
            # this stage just picks up its handles.  The window [now,
            # consumed] is where their in-flight time overlaps this
            # stage's compute — the bcast_overlap evidence.
            posted = self.node_handles.pop(node)
            window_t0 = max(c.now for c in clocks)
        else:
            posted = self.post_stage(k, p)
        a_handles, b_handles, a_bytes_row, b_bytes_col, stage_uniq = posted
        np.maximum(
            self.input_peak,
            a_bytes_row[:, None] + b_bytes_col[None, :],
            out=self.input_peak,
        )
        # The stage's pricing — its products and the merge events they
        # triggered — is one main-lane span.
        merge_span = maybe_span("merge", "summa", phase=p, stage=k)
        stage_available = 0.0
        stage_ranks = self.model.stage_ranks(k)
        last_available = self.last_available
        price, charge = self.price_product, self.charge_merges
        block_shape = self.plan.block_shape
        for i in range(q):
            ranks_i = stage_ranks[i]
            for j in range(q):
                record = records.pop((k, i, j), None)
                if record is None:  # an empty operand: no multiply
                    continue
                rank = ranks_i[j]
                # Under the static schedule a local multiply cannot start
                # before its inputs are off the wires; the sync schedule
                # already blocked the CPUs in the collective, so 0.0
                # reproduces its numbers bit-for-bit.
                ready = 0.0
                if static:
                    ready = max(a_handles[i].end, b_handles[j].end)
                available = price(rank, p, k, ready, record)
                stage_available = max(stage_available, available)
                last_available[i, j] = max(last_available[i, j], available)
                charge(
                    record[5], clocks[rank], available, rank,
                    block_shape(i, j, p), p, k,
                )
        merge_span.close()
        if static:
            # This stage's slabs are consumed once every multiply has its
            # inputs absorbed *and* the transfers themselves have drained
            # (empty blocks skip the multiply but the wires still carried
            # them).  consumed(n) gates issue(n+2).
            consumed_t = stage_available
            for h in stage_uniq:
                consumed_t = max(consumed_t, h.end)
            self.node_consumed[node] = consumed_t
            window_t1 = max(c.now for c in clocks)
            live = [stage_uniq] + [hs[4] for hs in self.node_handles.values()]
            result = self.result
            for handles in live:
                for h in handles:
                    result.bcast_overlap_seconds += _window_overlap(
                        window_t0, window_t1, h
                    )
            if node + 2 < self.n_nodes:
                self.issue_node(node + 2)
        if not self.config.pipelined:
            self.comm.barrier()

    def price_product(self, rank, p, k, ready, record) -> float:
        """Charge one stage product; returns when its output is on the
        host (the time its merge events may start)."""
        c_nnz, flops, cf, kind, gpu, _events, m = record
        spec, result, tracer = self.spec, self.result, self.tracer
        threads = self.config.threads
        clock = self.clocks[rank]
        result.stage_flops += flops
        if kind.on_gpu:
            kind = self.gpu_ladder(rank, p, k, ready, record, kind)
        if kind is KernelKind.CPU_HASH and (m, p) in self.plan.cpu_faults:
            # Injected host hash-table overflow: charge the aborted hash
            # attempt, demote to the heap.
            clock.cpu.schedule(
                ready,
                spec.cpu_spgemm_time(
                    kind, self.plan.cpu_ops(kind, record, p), threads
                ),
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
        trace = self.trace
        if not kind.on_gpu:
            dur = spec.cpu_spgemm_time(
                kind, self.plan.cpu_ops(kind, record, p), threads
            )
            available = clock.cpu.schedule(ready, dur, "local_spgemm")
            if trace is not None:
                trace.append(
                    (rank, p, k, "cpu_mult", available - dur, available)
                )
            return available
        kern_s, h2d, d2h = gpu
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
        if not self.config.pipelined and done > clock.cpu.free_at:
            # Bulk-synchronous: the CPU blocks on the device result before
            # doing anything else.
            clock.cpu.idle += done - clock.cpu.free_at
            clock.cpu.free_at = done
        return done

    def gpu_ladder(self, rank, p, k, ready, record, kind):
        """The kind a GPU product runs as: its own, or the CPU-hash rung
        when the fault schedule fails its attempt (genuine OOM or an
        injected transient)."""
        m = record[-1]
        outcome = self.plan.gpu_faults.get((m, p))
        if outcome is None:
            return kind
        # Only injected faults charge the aborted staging — a genuine OOM
        # is caught before any copy.
        injected = outcome == "injected"
        self.result.gpu_fallbacks += 1
        if self.tracer is not None:
            self.tracer.instant(
                "fault.gpu_fallback", "resilience", rank=rank, phase=p,
                stage=k, kernel=kind.value, injected=injected,
            )
        if injected:
            clock = self.clocks[rank]
            waste = self.spec.h2d_time(self.plan.a_bytes[m])
            start = max(clock.cpu.free_at, clock.gpu.free_at, ready)
            clock.cpu.schedule(start, waste, RESILIENCE_ACCOUNT)
            clock.gpu.schedule(start, waste, RESILIENCE_ACCOUNT)
        return degrade_kernel(kind)

    def charge_merges(self, events, clock, after, rank, shape, p, stage=None):
        """Plan, count and charge merge events on ``rank`` from ``after``."""
        from .phases import plan_merge_strategy

        result, tracer, trace = self.result, self.tracer, self.trace
        spec, threads = self.spec, self.config.threads
        faults = self.plan.merge_faults
        where = {"phase": p} if stage is None else {"phase": p, "stage": stage}
        for ev in events:
            strategy = plan_merge_strategy(
                ev.input_total, shape,
                budget_bytes=self.budget_bytes, rung=self.merge_rung,
            )
            result.merge_strategy_selections[strategy] += 1
            if tracer is not None:
                tracer.metric(
                    "merge.strategy", ev.input_total, strategy=strategy,
                    k=len(ev.input_sizes),
                )
                tracer.count(f"merge.{strategy}")
            dur = spec.merge_time(ev.operations, threads)
            if faults is not None and next(faults):
                # Injected merge-memory overrun: the attempt's modeled
                # time is wasted, and the strategy ladder degrades for the
                # rest of the multiply.
                clock.cpu.schedule(
                    max(clock.cpu.free_at, after), dur, RESILIENCE_ACCOUNT
                )
                result.merge_demotions += 1
                self.merge_rung = min(
                    self.merge_rung + 1, len(STRATEGY_LADDER) - 1
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

    # -- phase wrap-up --------------------------------------------------------

    def wrap_up_column(self, p: int, j: int) -> None:
        """Block column j's wrap-up under the static schedule, and the
        prune_bcast_overlap evidence of its window."""
        clocks = self.clocks
        col_ranks = self.grid.col_members(j)
        # The column's inter-phase prune stage spans its final merges
        # *and* the prune: that whole window runs while the posted
        # next-phase transfers drain on the links, so the overlap evidence
        # opens when the column's wrap-up starts, not after its merges
        # land.
        prune_t0 = min(clocks[r].cpu.free_at for r in col_ranks)
        # The per-fiber all-to-all combine returns this column's c partial
        # slabs to their 2-D owners before its final merges and prune.
        self.fiber_combine(p, j)
        with maybe_span("finish_merge", "summa", phase=p, column=j):
            for i in range(self.q):
                self.finish_block(p, i, j)
        self.charge_prune(p, j)
        prune_t1 = max(clocks[r].cpu.free_at for r in col_ranks)
        if self.tracer is not None:
            # The column's true simulated wrap-up window (its ranks'
            # clocks, not the global frontier) — the span
            # link_overlap_report intersects with the in-flight transfers.
            self.tracer.event_span(
                "prune.column", "summa",
                t0_sim=prune_t0, t1_sim=prune_t1, phase=p, column=j,
            )
        # Each in-flight transfer once: members of a 3-D group share one
        # tree handle, so the per-row / per-column handle lists would
        # count it r times.
        result = self.result
        for hs in self.node_handles.values():
            for h in hs[4]:
                result.prune_bcast_overlap_seconds += _window_overlap(
                    prune_t0, prune_t1, h
                )

    def finish_block(self, p: int, i: int, j: int) -> None:
        # Final merges run on the block's post-combine owner: the home
        # cell the fiber combine returned the partials to.
        rank = self.model.home_rank(i, j)
        rec = self.blocks[p][(i, j)]
        self.charge_merges(
            rec.finish_events, self.clocks[rank],
            float(self.last_available[i, j]), rank,
            self.plan.block_shape(i, j, p), p,
        )
        result = self.result
        result.merge_operations += rec.operations
        result.merge_peak_event_elements = max(
            result.merge_peak_event_elements, rec.peak_event_elements
        )
        result.merge_peak_resident_elements = max(
            result.merge_peak_resident_elements, rec.peak_resident_elements
        )
        result.max_rank_resident_bytes = max(
            result.max_rank_resident_bytes,
            rec.peak_resident_elements * 24 + int(self.input_peak[i, j]),
        )

    def fiber_combine(self, p: int, j: int) -> None:
        blocks = self.blocks[p]
        self.model.charge_fiber_combine(
            self.comm, j,
            sum(blocks[(i, j)].combine_elements for i in range(self.q)),
            self.config.threads,
        )

    def charge_prune(self, p: int, j: int) -> None:
        blocks = self.blocks[p]
        self.charge_column_prune(
            j, [blocks[(i, j)].nnz for i in range(self.q)],
            self.plan.block_shape(0, j, p)[1],
        )


def _pipeline_window(dist_a, dist_b, phases, config, budget_bytes) -> int:
    """The static schedule's link-side double-buffer window (0 under
    sync): 1 when the budget has no room for a second in-flight stage,
    which degrades static to the synchronous broadcasts."""
    if config.schedule != "static":
        return 0
    from .phases import overlap_window

    # Per-rank footprint of one in-flight stage: the largest A block plus
    # the largest B phase slab (a block's columns split h ways).  The
    # window is independent of the executor: the static schedule changes
    # simulated time and must be identical at every worker count.
    q = dist_a.grid.q
    cells = [(i, j) for i in range(q) for j in range(q)]
    a_max = max(dist_a.block_storage_bytes(i, j) for i, j in cells)
    b_max = max(dist_b.block_storage_bytes(i, j) for i, j in cells)
    return overlap_window(
        int(a_max + (b_max + phases - 1) // phases), budget_bytes
    )


def summa_multiply(
    dist_a: DistributedCSC,
    dist_b: DistributedCSC,
    comm: VirtualComm,
    config: SummaConfig,
    *,
    phases: int = 1,
    prune_column=None,
    charge_column_prune=None,
    injector=None,
    executor=None,
    workers: int | str | None = None,
    overlap_budget_bytes: int | None = None,
    merge_injector=None,
    model=None,
) -> SummaResult:
    """Compute ``C = A·B`` on the grid, per the configured algorithm: the
    numeric pass (:func:`_numeric_pass`), the plan that prices it from
    counts (:class:`_PricePlan`) and the pricing pass (:class:`_Pricer`).

    ``prune_column(col_blocks, j)`` runs in the numeric pass, once per
    block column ``j`` of the multiply (at full width, whatever
    ``phases`` is), inside the column's task as soon as its q blocks are
    finished: it receives them as a list indexed by block row and returns
    the (pruned) blocks to keep.  The blocks it receives are
    duplicate-free per column but their rows are in merge order, not
    sorted, so it must be an order-independent column-wise filter; the
    blocks it returns are sorted afterwards, and every block of the result
    is canonical.  It must be pure — no clock is charged there, and on a
    pool it runs on a pool thread concurrently with the other columns'
    tasks, so it must not mutate state shared between columns.

    ``charge_column_prune(j, nnz, width)`` runs in the pricing pass, once
    per block column of each phase, with the phase's unpruned per-block
    nonzero counts and its width.  Under ``config.schedule == "static"``
    (when not degraded to the synchronous broadcasts) it is called as
    soon as the column's final merges are charged, while the next stages'
    transfers are still in flight — the ``prune_bcast_overlap_seconds``
    evidence; otherwise all columns are charged in order after the
    phase's final merges.

    ``executor`` (or ``workers``, resolved through
    :func:`repro.parallel.get_executor`) selects the wall-clock
    execution: the q block columns run as :func:`compute_column` tasks —
    inline in order at one worker, as one batch across the thread pool
    otherwise.  Clocks, traces and fault draws stay in the pricing pass,
    so every worker count is bit-identical.

    ``overlap_budget_bytes`` (the §V estimator budget) bounds the static
    schedule's double buffer (:func:`~repro.summa.phases.overlap_window`
    degrades it to the synchronous broadcasts when a second in-flight
    stage does not fit) and the SpKAdd strategy planning.

    ``injector`` arms the kernel fault sites (GPU allocation and launch,
    CPU hash): faulted kernels demote along the ladder (GPU → CPU-hash →
    heap), and *injected* faults charge the aborted attempt's time under
    the resilience account; a GPU share that does not fit
    ``config.spec.gpu_memory_bytes`` demotes too.  ``merge_injector``
    arms the merge-memory-overrun site, which demotes the SpKAdd strategy
    ladder.  Every draw happens once per multiply, before the pricing
    pass (:meth:`_PricePlan.draw_faults`), so injections are identical
    across every execution cell, and numerics never change — only which
    kernel kind is charged.

    ``model`` (a :class:`~repro.summa.engine3d.Grid3DModel`) decides where
    the simulated time and traffic land; None is the one-layer model with
    broadcast-only delivery — the plain 2-D grid.  It changes simulated
    clocks only, never results.
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
    if model is None:
        model = Grid3DModel(grid.q, 1, None)
    elif model.q != grid.q:
        raise ValueError(
            f"grid model built for q={model.q}, matrices on q={grid.q}"
        )
    if executor is None:
        from ..parallel import get_executor

        executor = get_executor(workers)
    pipeline_window = _pipeline_window(
        dist_a, dist_b, phases, config, overlap_budget_bytes
    )
    result = SummaResult(
        dist_c=DistributedCSC(
            (dist_a.global_shape[0], dist_b.global_shape[1]), grid, {}
        ),
        phases=phases,
        schedule=config.schedule,
        pipeline_window=pipeline_window,
    )
    link_busy_before = comm.link_busy_seconds()
    # The model lives across a whole run; record its counters so the
    # result reports only this multiply's selections and demotions.
    sel_before = Counter(model.transport_selections)
    dem_before = model.transport_demotions
    model.charge_redistribution(comm, dist_a.nnz + dist_b.nnz)

    kept, products, blocks = _numeric_pass(
        dist_a, dist_b, phases, config.merge, overlap_budget_bytes,
        prune_column, executor,
    )
    # The phases tile every block's columns.
    result.exact_nnz = sum(
        rec.nnz for phase in blocks for rec in phase.values()
    )
    plan = _PricePlan(dist_a, dist_b, products, phases, config, model)
    del products
    plan.draw_faults(blocks, injector, merge_injector)
    _Pricer(
        plan, blocks, comm, model, config, result, grid=grid,
        budget_bytes=overlap_budget_bytes,
        charge_column_prune=charge_column_prune,
        static=pipeline_window > 1,
    ).run()

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


def _phase_bounds(ncols: int, phases: int) -> np.ndarray:
    """Near-even column ranges of the phases within a local block: phase
    p covers columns ``[bounds[p], bounds[p + 1])``."""
    base, extra = divmod(ncols, phases)
    p = np.arange(phases + 1)
    return p * base + np.minimum(p, extra)
