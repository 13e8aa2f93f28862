"""Split-3-D sparse matrix multiplication on the simulated machine.

The paper stops at remarks about 3-D algorithms (§II: redistribution may
not amortize; §VII-E: "GPU idle times can be reduced further ... via
adapting 3D SpGEMM [9]").  This module *implements* the split-3-D scheme
of Azad et al. (SISC'16) on the same virtual machine, so the remarks can
be tested as measurements rather than formulas:

* ``P = c · q₃²`` processes form ``c`` layers of ``q₃ × q₃`` grids;
* A is split by *columns* across layers, B by *rows*, so layer ``l``
  computes the full-shape partial product ``C⁽ˡ⁾ = A(:, sₗ) · B(sₗ, :)``
  with an ordinary (pipelined) Sparse SUMMA of only q₃ stages;
* the per-fiber all-to-all then combines the ``c`` partial blocks of each
  grid position (charged on the clocks, merged for real).

Everything numeric is real; the result is validated against the 2-D
engine and the dense product in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import GridError
from ..machine.spec import MachineSpec
from ..merge.lists import BYTES_PER_TRIPLE, TripleList
from ..mpi.comm import VirtualComm
from ..mpi.grid import ProcessGrid, grid3d_shape, is_perfect_square
from ..sparse import CSCMatrix, block_of_csc
from .distmatrix import DistributedCSC
from .engine import SummaConfig, SummaResult, summa_multiply


class _LayerComm:
    """A layer's view of the global communicator: ranks offset by
    ``layer · q₃²`` so :func:`summa_multiply` can run unmodified."""

    def __init__(self, parent: VirtualComm, offset: int, size: int):
        self._parent = parent
        self._offset = offset
        self.clocks = parent.clocks[offset : offset + size]
        self.traffic = parent.traffic
        self.spec = parent.spec

    @property
    def size(self) -> int:
        return len(self.clocks)

    def _shift(self, ranks):
        return [r + self._offset for r in ranks]

    def broadcast(self, ranks, nbytes, account="summa_bcast"):
        return self._parent.broadcast(self._shift(ranks), nbytes, account)

    def allreduce(self, ranks, nbytes, account="allreduce"):
        return self._parent.allreduce(self._shift(ranks), nbytes, account)

    def alltoall(self, ranks, nbytes, account="exchange"):
        return self._parent.alltoall(self._shift(ranks), nbytes, account)

    def broadcast_async(
        self, ranks, nbytes, account="summa_bcast", *, channel, ready_at=0.0
    ):
        # Each layer runs its own q₃×q₃ grid, so its broadcast trees are
        # distinct wires — namespace the channel by the layer offset.
        return self._parent.broadcast_async(
            self._shift(ranks), nbytes, account,
            channel=f"layer{self._offset}:{channel}", ready_at=ready_at,
        )

    def link_busy_seconds(self):
        return self._parent.link_busy_seconds()

    def barrier(self, ranks=None):
        ranks = list(range(self.size)) if ranks is None else ranks
        return self._parent.barrier(self._shift(ranks))


@dataclass
class Summa3DResult:
    """Product and accounting of one split-3-D multiplication."""

    matrix: CSCMatrix
    layers: int
    layer_results: list[SummaResult] = field(default_factory=list)
    redistribution_seconds: float = 0.0
    fiber_combine_seconds: float = 0.0

    @property
    def kernel_selections(self):
        from collections import Counter

        total = Counter()
        for r in self.layer_results:
            total.update(r.kernel_selections)
        return total


def _layer_slices(n: int, layers: int) -> list[tuple[int, int]]:
    base, extra = divmod(n, layers)
    out, lo = [], 0
    for l in range(layers):
        hi = lo + base + (1 if l < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def summa3d_multiply(
    a: CSCMatrix,
    b: CSCMatrix,
    comm: VirtualComm,
    config: SummaConfig,
    layers: int,
    *,
    charge_redistribution: bool = True,
) -> Summa3DResult:
    """Compute ``C = A·B`` with ``layers`` layers on ``comm``'s processes.

    ``comm.size`` must equal ``layers · q₃²`` for a square q₃.  When
    ``charge_redistribution`` is set, the one-time 2-D → 3-D data movement
    (each process ships its local share along its fiber) is charged before
    the multiplication — §II's caveat, measurable.

    The per-fiber combine runs through the SpKAdd engine under the
    planner's strategy label (one engine runs behind every label).
    """
    from ..merge.spkadd import spkadd_merge
    from .phases import plan_merge_strategy

    if a.ncols != b.nrows:
        raise GridError(
            f"inner dimension mismatch: A is {a.shape}, B is {b.shape}"
        )
    if layers < 1:
        raise GridError(f"layers must be >= 1, got {layers}")
    if comm.size % layers:
        raise GridError(
            f"{comm.size} processes do not split into {layers} layers"
        )
    per_layer = comm.size // layers
    if not is_perfect_square(per_layer):
        raise GridError(f"layer size {per_layer} is not a perfect square")
    grid = ProcessGrid.for_processes(per_layer)
    spec: MachineSpec = comm.spec

    t_redist0 = comm.barrier()
    if charge_redistribution and layers > 1:
        share = 16 * max(1, (a.nnz + b.nnz) // comm.size)
        for base in range(0, comm.size, layers):
            # One fiber = the same grid position across layers.  Fibers
            # are disjoint, so charging them per group is faithful.
            fiber = list(range(base, base + layers))
            comm.alltoall(fiber, share, "redistribution")

    slices = _layer_slices(a.ncols, layers)
    t_start = comm.barrier()
    layer_results: list[SummaResult] = []
    partial_lists: dict[tuple[int, int], list[TripleList]] = {}
    for l, (lo, hi) in enumerate(slices):
        a_l = a.column_slab(lo, hi)
        b_l = block_of_csc(b, lo, hi, 0, b.ncols)
        dist_a = DistributedCSC.from_global(a_l, grid)
        dist_b = DistributedCSC.from_global(b_l, grid)
        layer_comm = _LayerComm(comm, l * per_layer, per_layer)
        res = summa_multiply(dist_a, dist_b, layer_comm, config)
        layer_results.append(res)
        for key, blk in res.dist_c.blocks.items():
            partial_lists.setdefault(key, []).append(
                TripleList.from_csc(blk, copy=False)
            )

    # -- fiber combine: all-to-all + merge of the c partial blocks ---------
    t_mult_done = comm.barrier()
    out_blocks: dict[tuple[int, int], CSCMatrix] = {}
    for key, lists in partial_lists.items():
        i, j = key
        fiber = [l * per_layer + grid.rank_of(i, j) for l in range(layers)]
        pair_bytes = BYTES_PER_TRIPLE * max(
            1, sum(len(t) for t in lists) // max(1, layers * layers)
        )
        comm.alltoall(fiber, pair_bytes, "fiber_combine")
        strategy = plan_merge_strategy(
            sum(len(t) for t in lists), lists[0].shape
        )
        merged = spkadd_merge(lists, strategy=strategy)
        ops = sum(len(t) for t in lists) * max(
            1.0, np.log2(max(2, layers))
        )
        for rank in fiber:
            clock = comm.clocks[rank]
            clock.cpu.schedule(
                clock.cpu.free_at,
                spec.merge_time(ops / layers, config.threads),
                "fiber_combine",
            )
        out_blocks[key] = merged.to_csc()
    t_end = comm.barrier()

    shape = (a.nrows, b.ncols)
    dist_c = DistributedCSC(shape, grid, out_blocks)
    return Summa3DResult(
        matrix=dist_c.to_global(),
        layers=layers,
        layer_results=layer_results,
        redistribution_seconds=(
            t_start - t_redist0
            if charge_redistribution and layers > 1
            else 0.0
        ),
        fiber_combine_seconds=t_end - t_mult_done,
    )


# ---------------------------------------------------------------------------
# The first-class --grid 3d charge model
# ---------------------------------------------------------------------------


def _partition_runs(n: int, parts: int) -> list[tuple[int, int]]:
    """Near-even contiguous partition of ``range(n)`` into ``parts`` runs
    (the same CombBLAS split :meth:`ProcessGrid.block_bounds` uses);
    empty runs are allowed when ``parts > n``."""
    base, extra = divmod(n, parts)
    out, lo = [], 0
    for p in range(parts):
        hi = lo + base + (1 if p < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _slab_row_counts(slab: CSCMatrix) -> np.ndarray:
    """Per-row nonzero counts of a B phase slab, memoized on the slab —
    the Cohen-style per-column structure the hybrid transport prices
    tailored payloads from (re-read once per stage group per phase)."""
    from ..perf.cache import memo

    return memo(
        slab,
        "row_counts",
        lambda: np.bincount(slab.indices, minlength=slab.shape[0]),
    )


class Grid3DModel:
    """Clock/traffic charge model of the split-3D grid for the 2-D engine.

    The bit-identity contract of the execution matrix pins every knob to
    the serial 2-D numerics — but a *genuinely* layered multiplication
    cannot honor it: the c partial products accumulate in per-layer merge
    trees whose floating-point grouping differs from the 2-D schedule.
    So ``--grid 3d`` keeps the 2-D numeric path bit-for-bit (same block
    decomposition, same stage products, same merge pushes, same prune)
    and this model redirects *where the simulated time and traffic land*:

    * the P = q² rank clocks are reinterpreted as ``c`` layers of
      ``q₃ × q₃`` cells (``cell = layer·q₃² + I·q₃ + J``, c = r²,
      q₃ = q/r), each cell standing for the r × r 2-D blocks it owns;
    * the q 2-D SUMMA stages partition near-evenly across the c layers
      (a layer's stages are the inner-dimension slabs it would own), and
      each stage's A/B broadcasts become q₃ layer-row/-column tree
      broadcasts of the r-aggregated block bytes — fewer, fatter trees
      over smaller groups, which is the 3D communication win;
    * per-(i, j) kernel and merge work lands on the owning cell's clock;
    * the one-time 2D → 3D redistribution is charged per multiply, and a
      per-fiber all-to-all combine per output block column returns the c
      partial slabs to their 2-D owners before pruning — §II's caveat,
      measurable.

    The model also owns the sparsity-aware **hybrid transport**: per
    stage, each B column-group's delivery is priced as bulk broadcast vs
    point-to-point sends of only the row support the receiving cells' A
    blocks actually touch (:func:`repro.summa.phases.plan_transport`),
    recorded as a ``transport.select`` metric and counted on the result.
    An injected comm failure that exhausts the retry ladder on a p2p
    send demotes the transport to broadcast for the rest of the run (the
    recovery rung; ``ResiliencePolicy.demote_transport`` disarms it).

    One model instance lives for a whole HipMCL run, so the demotion
    rung and the selection counters persist across iterations.
    """

    def __init__(
        self,
        q: int,
        layers: int = 0,
        transport: str = "hybrid",
        *,
        demote_transport: bool = True,
    ):
        if transport not in ("hybrid", "broadcast", "p2p"):
            raise GridError(
                f"transport must be 'hybrid', 'broadcast' or 'p2p', "
                f"got {transport!r}"
            )
        c, r, q3 = grid3d_shape(q * q, layers)
        self.q = q
        self.c = c
        self.r = r
        self.q3 = q3
        self.transport = transport
        self.demote_transport = demote_transport
        self.transport_selections: Counter = Counter()
        self.transport_demotions = 0
        self._demoted = False
        runs = _partition_runs(q, c)
        self._stage_layer = [
            lay for lay, (lo, hi) in enumerate(runs) for _ in range(hi - lo)
        ]
        self._home_layer = list(self._stage_layer)

    # -- geometry ---------------------------------------------------------

    @property
    def layers(self) -> int:
        return self.c

    def stage_layer(self, k: int) -> int:
        """The layer that owns 2-D stage ``k`` (its inner-dim slab)."""
        return self._stage_layer[k]

    def group_rows(self, I: int) -> range:
        """The r 2-D block rows aggregated into layer-grid row ``I``."""
        return range(I * self.r, (I + 1) * self.r)

    def group_cols(self, J: int) -> range:
        """The r 2-D block columns aggregated into layer-grid col ``J``."""
        return range(J * self.r, (J + 1) * self.r)

    def cell(self, lay: int, I: int, J: int) -> int:
        """Rank index of 3D cell (layer, I, J) in the shared rank space."""
        return lay * self.q3 * self.q3 + I * self.q3 + J

    def cell_rank(self, i: int, j: int, k: int) -> int:
        """The cell whose clock stage ``k``'s (i, j) work charges to."""
        return self.cell(self.stage_layer(k), i // self.r, j // self.r)

    def home_rank(self, i: int, j: int) -> int:
        """The cell that owns output block (i, j) after the fiber combine."""
        return self.cell(self._home_layer[j], i // self.r, j // self.r)

    def layer_row_ranks(self, lay: int, I: int) -> list[int]:
        """The layer-row broadcast tree (an A subcommunicator)."""
        return [self.cell(lay, I, J) for J in range(self.q3)]

    def layer_col_ranks(self, lay: int, J: int) -> list[int]:
        """The layer-column broadcast tree (a B subcommunicator)."""
        return [self.cell(lay, I, J) for I in range(self.q3)]

    def fiber_ranks(self, I: int, J: int) -> list[int]:
        """The c cells holding partials of grid position (I, J)."""
        return [self.cell(lay, I, J) for lay in range(self.c)]

    # -- transport selection -----------------------------------------------

    def _effective_transport(self) -> str:
        return "broadcast" if self._demoted else self.transport

    def _receiver_payloads(
        self, dist_a, slabs, k: int, cols, root_row: int
    ) -> list[tuple[int, int]]:
        """(receiver cell-row, tailored payload bytes) per p2p receiver.

        Receiver (I, J) only needs the B-slab rows in the union of the
        non-empty A columns of its r blocks ``(i, k)`` — the per-column
        structure the Cohen estimator already walks.
        """
        from .phases import P2P_BYTES_PER_NNZ, P2P_HEADER_BYTES

        counts = [_slab_row_counts(slabs[j]) for j in cols]
        out = []
        for I in range(self.q3):
            if I == root_row:
                continue
            mask = None
            for i in self.group_rows(I):
                support = dist_a.block_column_support(i, k)
                mask = support if mask is None else (mask | support)
            need = 0
            if mask is not None and mask.any():
                need = sum(int(rc[mask].sum()) for rc in counts)
            out.append((I, P2P_BYTES_PER_NNZ * need + P2P_HEADER_BYTES))
        return out

    def _decide(self, spec, k, p, J, group_bytes, receivers):
        """Run the selector, count the choice, emit the metric."""
        from ..trace import current_tracer
        from .phases import plan_transport

        decision = plan_transport(
            spec,
            group_bytes,
            [b for _, b in receivers],
            self.q3,
            mode=self._effective_transport(),
        )
        self.transport_selections[decision.choice] += 1
        tracer = current_tracer()
        if tracer is not None:
            tracer.metric(
                "transport.select",
                decision.p2p_bytes if decision.choice == "p2p"
                else decision.bcast_bytes,
                stage=k, phase=p, group=J,
                choice=decision.choice,
                bcast_seconds=decision.bcast_seconds,
                p2p_seconds=decision.p2p_seconds,
                demoted=self._demoted,
            )
        return decision

    def _demote(self, exc) -> None:
        """The recovery rung: p2p → broadcast for the rest of the run."""
        from ..trace import current_tracer

        if not self.demote_transport:
            raise exc
        self._demoted = True
        self.transport_demotions += 1
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                "fault.transport_demotion", "resilience",
                demotions=self.transport_demotions,
            )

    # -- per-stage charging -------------------------------------------------

    def charge_stage_sync(
        self, comm, k: int, p: int, dist_a, slabs, slab_bytes
    ) -> None:
        """Synchronous-schedule charges for stage ``k`` of phase ``p``.

        A rides q₃ layer-row trees of r-aggregated block bytes; each B
        column-group's delivery goes through the transport selector.
        """
        from ..resilience.faults import InjectedCommFailure

        lay = self.stage_layer(k)
        root_row = k // self.r
        for I in range(self.q3):
            nbytes = sum(
                dist_a.block_storage_bytes(i, k) for i in self.group_rows(I)
            )
            comm.broadcast(self.layer_row_ranks(lay, I), nbytes,
                           "summa_bcast")
        for J in range(self.q3):
            cols = self.group_cols(J)
            group_bytes = sum(slab_bytes[j] for j in cols)
            ranks = self.layer_col_ranks(lay, J)
            if self._effective_transport() == "broadcast":
                self.transport_selections["broadcast"] += 1
                comm.broadcast(ranks, group_bytes, "summa_bcast")
                continue
            receivers = self._receiver_payloads(
                dist_a, slabs, k, cols, root_row
            )
            decision = self._decide(
                comm.spec, k, p, J, group_bytes, receivers
            )
            if decision.choice != "p2p":
                comm.broadcast(ranks, group_bytes, "summa_bcast")
                continue
            root = self.cell(lay, root_row, J)
            try:
                for I, payload in receivers:
                    comm.p2p(root, self.cell(lay, I, J), payload,
                             "summa_p2p")
            except InjectedCommFailure as exc:
                self._demote(exc)
                comm.broadcast(ranks, group_bytes, "summa_bcast")

    def post_stage_async(
        self, comm, k: int, p: int, dist_a, slabs, slab_bytes, gate: float
    ):
        """Static-schedule charges: post the stage's transfers on
        layer-prefixed link channels without blocking.

        Returns ``(a_handles, b_handles, unique)``: per-block-row and
        per-block-column completion handles (members of one group share
        their tree's handle, so the engine's per-(i, j) gating works
        unchanged) plus the deduplicated handle list for the overlap
        accounting.
        """
        from ..resilience.faults import InjectedCommFailure

        lay = self.stage_layer(k)
        root_row = k // self.r
        a_handles = [None] * self.q
        b_handles = [None] * self.q
        unique = []
        for I in range(self.q3):
            nbytes = sum(
                dist_a.block_storage_bytes(i, k) for i in self.group_rows(I)
            )
            h = comm.broadcast_async(
                self.layer_row_ranks(lay, I), nbytes, "summa_bcast",
                channel=f"layer{lay}:row:{I}", ready_at=gate,
            )
            for i in self.group_rows(I):
                a_handles[i] = h
            unique.append(h)
        for J in range(self.q3):
            cols = self.group_cols(J)
            group_bytes = sum(slab_bytes[j] for j in cols)
            ranks = self.layer_col_ranks(lay, J)
            channel = f"layer{lay}:col:{J}"
            h = None
            if self._effective_transport() == "broadcast":
                self.transport_selections["broadcast"] += 1
            else:
                receivers = self._receiver_payloads(
                    dist_a, slabs, k, cols, root_row
                )
                decision = self._decide(
                    comm.spec, k, p, J, group_bytes, receivers
                )
                if decision.choice == "p2p":
                    try:
                        h = comm.p2p_chain_async(
                            ranks, [b for _, b in receivers], "summa_p2p",
                            channel=channel, ready_at=gate,
                        )
                    except InjectedCommFailure as exc:
                        self._demote(exc)
            if h is None:
                h = comm.broadcast_async(
                    ranks, group_bytes, "summa_bcast",
                    channel=channel, ready_at=gate,
                )
            for j in cols:
                b_handles[j] = h
            unique.append(h)
        return a_handles, b_handles, unique

    # -- multiply-scoped charges ---------------------------------------------

    def charge_redistribution(self, comm, total_nnz: int) -> None:
        """The one-time 2D → 3D movement at the start of a multiply."""
        if self.c == 1:
            return
        share = 16 * max(1, total_nnz // comm.size)
        for I in range(self.q3):
            for J in range(self.q3):
                comm.alltoall(self.fiber_ranks(I, J), share,
                              "redistribution")

    def charge_fiber_combine(
        self, comm, j: int, total_nnz: int, threads: int
    ) -> None:
        """The per-fiber all-to-all + merge returning block column ``j``'s
        c partial slabs to their 2-D owners before the prune."""
        if self.c == 1:
            return
        spec = comm.spec
        J = j // self.r
        row_share = max(1, total_nnz // max(1, self.q3))
        pair_bytes = BYTES_PER_TRIPLE * max(
            1, row_share // (self.c * self.c)
        )
        ops = row_share * max(1.0, float(np.log2(max(2, self.c))))
        merge_s = spec.merge_time(ops / self.c, threads)
        for I in range(self.q3):
            fiber = self.fiber_ranks(I, J)
            comm.alltoall(fiber, pair_bytes, "fiber_combine")
            for rank in fiber:
                clock = comm.clocks[rank]
                clock.cpu.schedule(
                    clock.cpu.free_at, merge_s, "fiber_combine"
                )
