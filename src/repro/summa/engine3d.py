"""The process-grid charge model of the distributed SpGEMM engine.

The paper stops at remarks about 3-D algorithms (§II: redistribution may
not amortize; §VII-E: "GPU idle times can be reduced further ... via
adapting 3D SpGEMM [9]").  :class:`Grid3DModel` makes them measurable
on the engine's one numeric path: it decides where the simulated time
and traffic of every stage land, for the split-3-D grid of Azad et al.
(SISC'16) and — as its one-layer, broadcast-only case — for the plain
√P × √P SUMMA grid.  There is no second, genuinely layered 3-D engine:
its c partial products would accumulate in per-layer merge trees whose
floating-point grouping differs from the 2-D schedule, so it could
never honor the bit-identity contract every grid shape keeps.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..errors import GridError
from ..merge.lists import BYTES_PER_TRIPLE
from ..mpi.grid import grid3d_shape


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


class Grid3DModel:
    """Clock/traffic charge model of the process grid for the engine.

    The bit-identity contract of the execution matrix pins every knob to
    the serial 2-D numerics, so every grid shape keeps the 2-D numeric
    path bit-for-bit (same block decomposition, same stage products,
    same merge pushes, same prune) and this model decides *where the
    simulated time and traffic land*:

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

    With ``layers=1`` every cell is one 2-D block, every stage lives on
    the single layer, and the redistribution and fiber combine vanish:
    that is the 2-D grid, charge for charge.

    The model also owns the sparsity-aware **hybrid transport**: per
    stage, each B column-group's delivery is priced as bulk broadcast vs
    point-to-point sends of only the row support the receiving cells' A
    blocks actually touch (:func:`repro.summa.phases.plan_transport`),
    recorded as a ``transport.select`` metric and counted on the result.
    ``transport=None`` is the plain grid's delivery: every slab is
    broadcast and, there being no choice, nothing is counted.  An
    injected comm failure that exhausts the retry ladder on a p2p send
    demotes the transport to broadcast for the rest of the run (the
    recovery rung; ``ResiliencePolicy.demote_transport`` disarms it).

    One model instance lives for a whole HipMCL run, so the demotion
    rung and the selection counters persist across iterations.
    """

    def __init__(
        self,
        q: int,
        layers: int = 0,
        transport: str | None = "hybrid",
        *,
        demote_transport: bool = True,
    ):
        if transport not in (None, "hybrid", "broadcast", "p2p"):
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
        #: Per layer, the q × q table of cells the 2-D blocks charge to.
        self._layer_ranks = [
            [[self.cell(lay, i // r, j // r) for j in range(q)]
             for i in range(q)]
            for lay in range(c)
        ]

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

    def stage_ranks(self, k: int) -> list[list[int]]:
        """``stage_ranks(k)[i][j]``: the cell stage ``k``'s (i, j) work
        charges to.  Within a stage, each of the layer's q₃² cells
        receives exactly r² of the q² products."""
        return self._layer_ranks[self._stage_layer[k]]

    def cell_rank(self, i: int, j: int, k: int) -> int:
        """The cell whose clock stage ``k``'s (i, j) work charges to."""
        return self.stage_ranks(k)[i][j]

    def home_rank(self, i: int, j: int) -> int:
        """The cell that owns output block (i, j) after the fiber combine."""
        return self._layer_ranks[self._home_layer[j]][i][j]

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

    def _effective_transport(self) -> str | None:
        return "broadcast" if self._demoted else self.transport

    def a_counts(self, dist_a, k: int):
        """What stage ``k``'s deliveries read of A, counted once per
        multiply: each block row's A_ik broadcast bytes and, when the
        transport prices p2p sends, per layer-grid row I the union of the
        non-empty A columns of its r blocks ``(i, k)`` — the B-slab rows
        receiver (I, J) needs (None where the union is empty)."""
        a_bytes = [dist_a.block_storage_bytes(i, k) for i in range(self.q)]
        if self.transport not in ("hybrid", "p2p"):
            return a_bytes, None
        supports = []
        for I in range(self.q3):
            mask = None
            for i in self.group_rows(I):
                support = dist_a.block(i, k).column_lengths() > 0
                mask = support if mask is None else (mask | support)
            supports.append(mask if mask.any() else None)
        return a_bytes, supports

    def _receiver_payloads(
        self, supports, row_counts, cols, root_row: int
    ) -> list[tuple[int, int]]:
        """(receiver cell-row, tailored payload bytes) per p2p receiver:
        the B-slab rows in its A column support (:meth:`a_counts`), where
        ``row_counts[j]`` is the per-row nonzero count of block column j's
        slab."""
        from .phases import P2P_BYTES_PER_NNZ, P2P_HEADER_BYTES

        # Integer counts: summing the group's slabs first is exact.
        counts = sum(row_counts[j] for j in cols)
        out = []
        for I in range(self.q3):
            if I == root_row:
                continue
            mask = supports[I]
            need = 0 if mask is None else int(counts[mask].sum())
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

    def post_stage(
        self, comm, k: int, p: int, a_counts, row_counts, slab_bytes,
        gate: float | None = None, trace: list | None = None,
    ):
        """Charge the A and B deliveries of stage ``k`` of phase ``p``.

        A rides q₃ layer-row trees of r-aggregated block bytes; each B
        column-group's delivery goes through the transport selector.
        ``a_counts`` is :meth:`a_counts` of stage ``k``;
        ``slab_bytes[j]`` is the broadcast payload of B_kj's phase slab
        and ``row_counts[j]`` its per-row nonzero counts, which only the
        p2p pricing reads (None is fine under ``transport`` None or
        ``"broadcast"``).  With ``gate`` None the transfers are blocking
        collectives on the member CPUs (the sync schedule); otherwise
        they are posted on the layer's ``row:`` / ``col:`` link channels,
        ready at ``gate`` (the static schedule), and their link spans
        carry ``phase`` and ``stage``.  ``trace``, when given, receives
        one ``(root, p, k, "bcast_A" | "bcast_B", start, end)`` tuple per
        broadcast tree, rooted at the cell owning the broadcast block.

        Returns ``(a_handles, b_handles, a_bytes, b_bytes, unique)``:
        per-block-row and per-block-column completion handles (members of
        one group share their tree's handle, so the engine's per-(i, j)
        gating works unchanged), the per-block-row / -column input bytes,
        and the deduplicated handle list for the overlap accounting.
        """
        from ..resilience.faults import InjectedCommFailure

        lay = self.stage_layer(k)
        root = k // self.r  # the layer-grid row/column owning slab k
        row_base = lay * self.q3  # layer trees get distinct channels
        a_list, supports = a_counts
        a_handles = [None] * self.q
        b_handles = [None] * self.q
        unique = []
        posted_by = {"phase": p, "stage": k}

        def bcast(ranks, nbytes, channel, root_rank, kind):
            if gate is None:
                h = comm.broadcast(ranks, nbytes, "summa_bcast")
            else:
                h = comm.broadcast_async(
                    ranks, nbytes, "summa_bcast",
                    channel=channel, ready_at=gate, trace_attrs=posted_by,
                )
            if trace is not None:
                trace.append((root_rank, p, k, kind, h.start, h.end))
            return h

        def send_p2p(J, ranks, receivers, channel):
            if gate is not None:
                return comm.p2p_chain_async(
                    ranks, [b for _, b in receivers], "summa_p2p",
                    channel=channel, ready_at=gate, trace_attrs=posted_by,
                )
            h = None
            for I, payload in receivers:
                h = comm.p2p(self.cell(lay, root, J), self.cell(lay, I, J),
                             payload, "summa_p2p")
            return h

        def deliver_b(J):
            cols = self.group_cols(J)
            group_bytes = sum(slab_bytes[j] for j in cols)
            ranks = self.layer_col_ranks(lay, J)
            channel = f"col:{row_base + J}"
            mode = self._effective_transport()
            if mode == "broadcast":
                self.transport_selections["broadcast"] += 1
            elif mode is not None:
                receivers = self._receiver_payloads(
                    supports, row_counts, cols, root
                )
                decision = self._decide(
                    comm.spec, k, p, J, group_bytes, receivers
                )
                if decision.choice == "p2p":
                    try:
                        return send_p2p(J, ranks, receivers, channel)
                    except InjectedCommFailure as exc:
                        self._demote(exc)
            return bcast(ranks, group_bytes, channel,
                         self.cell(lay, root, J), "bcast_B")

        for I in range(self.q3):
            rows = self.group_rows(I)
            h = bcast(
                self.layer_row_ranks(lay, I),
                sum(a_list[i] for i in rows),
                f"row:{row_base + I}", self.cell(lay, I, root), "bcast_A",
            )
            for i in rows:
                a_handles[i] = h
            unique.append(h)
        for J in range(self.q3):
            h = deliver_b(J)
            for j in self.group_cols(J):
                b_handles[j] = h
            unique.append(h)
        return (
            a_handles, b_handles,
            np.array(a_list, dtype=np.int64),
            np.array(slab_bytes, dtype=np.int64),
            unique,
        )

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
