"""The virtual communicator: time and traffic accounting for collectives.

The simulation executes every rank's program in one address space, so the
communicator never moves data — it *charges* each participant's
:class:`~repro.machine.clock.RankClock` the modeled cost of the collective
(α-β tree models from :class:`~repro.machine.spec.MachineSpec`) and counts
bytes and messages.  Collectives are synchronizing: all participants leave
at the same completion time, exactly like a blocking MPI collective, which
is what makes the *pipelined* SUMMA's relaxation of synchronization visible
in the timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..errors import CommunicatorError
from ..machine.clock import RankClock, ResourceTimeline
from ..machine.spec import MachineSpec


#: Account name under which all injected-fault recovery time is charged
#: (failed collective attempts, backoff, straggler delays, aborted GPU
#: staging).  Folds into the "other" stage bucket of Fig. 1 reports.
RESILIENCE_ACCOUNT = "resilience"


class CollectiveResult(NamedTuple):
    """Interval one synchronous collective occupied on its members' CPUs.

    ``start`` is when the last member arrived (the collective's common
    launch time), ``end`` when everyone exits together.  Returned by the
    broadcast-family calls so callers never recompute the start from the
    member clocks (they used to — the engine duplicated ``_collective``'s
    ``max(free_at)`` scan for its trace rows).
    """

    start: float
    end: float


@dataclass(frozen=True)
class AsyncBroadcast:
    """Completion handle of one :meth:`VirtualComm.broadcast_async`.

    The broadcast occupies its row/column *link* for ``[start, end]``;
    nothing blocks on it until a consumer waits on ``end`` (the engine
    gates each local multiply on its two input handles).  The CPUs of the
    member ranks are never charged — that is the §III pipeline's point:
    stage-(k+1) traffic rides the wires while stage-k compute owns the
    cores.
    """

    channel: str
    start: float
    end: float
    nbytes: int


@dataclass
class TrafficStats:
    """Volume counters, aggregated over the whole run."""

    bytes_broadcast: int = 0
    bytes_reduced: int = 0
    bytes_exchanged: int = 0
    collective_calls: int = 0
    #: Failed-and-retried collective attempts and their total charged
    #: seconds (attempt duration + backoff), plus straggler injections —
    #: the simulated cost of comm-level resilience.
    collective_retries: int = 0
    retry_seconds: float = 0.0
    straggler_events: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_broadcast + self.bytes_reduced + self.bytes_exchanged


class VirtualComm:
    """Clocks and counters for ``P`` virtual MPI processes.

    ``injector`` (a :class:`repro.resilience.faults.FaultInjector`) makes
    collectives suffer transient failures and straggler delays; ``retry``
    (a :class:`repro.resilience.policy.RetryPolicy`) governs how failed
    attempts are retried.  Every failed attempt re-runs the collective's
    full α-β duration plus an exponential backoff, charged to *all*
    participants under :data:`RESILIENCE_ACCOUNT` — resilience costs
    appear in the simulated timelines like any other work.  Without an
    injector the communicator behaves exactly as before.
    """

    def __init__(
        self, nprocs: int, spec: MachineSpec, *, injector=None, retry=None
    ):
        if nprocs <= 0:
            raise CommunicatorError(f"process count must be positive: {nprocs}")
        self.spec = spec
        self.clocks = [RankClock() for _ in range(nprocs)]
        #: Per-channel link timelines for async broadcasts, created on
        #: first use.  A channel is one broadcast tree's wires (e.g. the
        #: row-``i`` tree, keyed ``"row:3"``); successive async broadcasts
        #: on the same channel serialize on it, which is the double-buffer
        #: depth bound the static schedule relies on.
        self.links: dict[str, ResourceTimeline] = {}
        self.traffic = TrafficStats()
        self.injector = injector
        if injector is not None and retry is None:
            from ..resilience.policy import RetryPolicy

            retry = RetryPolicy()
        self.retry = retry

    @property
    def size(self) -> int:
        return len(self.clocks)

    def _check_group(self, ranks: list[int]) -> None:
        if not ranks:
            raise CommunicatorError("collective over an empty group")
        for r in ranks:
            if not (0 <= r < self.size):
                raise CommunicatorError(
                    f"rank {r} outside communicator of size {self.size}"
                )

    def _inject(
        self, ranks: list[int], duration: float,
        link: ResourceTimeline | None = None,
    ) -> None:
        """Apply the fault plan to the collective about to run.

        A straggler delays one member before the collective can start
        (the others then wait for it — recorded as idleness by the
        synchronizing start).  Each transient failure charges every
        member the collective's full duration plus the retry backoff;
        more failures than the policy's ``max_retries`` abort the run
        with :class:`InjectedCommFailure`.

        An async transfer passes its ``link``: the same draws, counters
        and tracer instants, but the delays land on the channel instead of
        the member CPUs — a straggler holds the tree's wires, and each
        failed attempt re-occupies the link.  The ranks never block;
        whoever later waits on the handle absorbs the delay, exactly like
        a late ``MPI_Wait``.
        """
        from ..resilience.faults import InjectedCommFailure
        from ..trace import current_tracer

        tracer = current_tracer()
        straggler = self.injector.straggler(len(ranks))
        if straggler is not None:
            idx, delay = straggler
            late = link if link is not None else self.clocks[ranks[idx]].cpu
            late.schedule(late.free_at, delay, RESILIENCE_ACCOUNT)
            self.traffic.straggler_events += 1
            if tracer is not None:
                tracer.instant(
                    "fault.straggler", "resilience",
                    rank=ranks[idx], delay=delay,
                )
        failures = self.injector.collective_failures()
        if link is not None:
            timelines = [link]
        else:
            timelines = [self.clocks[r].cpu for r in ranks]
        for attempt in range(failures):
            if attempt >= self.retry.max_retries:
                raise InjectedCommFailure(
                    f"collective failed {failures} times; retry policy "
                    f"allows {self.retry.max_retries} retries"
                )
            cost = duration + self.retry.delay(attempt)
            start = max(t.free_at for t in timelines)
            for t in timelines:
                t.schedule(start, cost, RESILIENCE_ACCOUNT)
            self.traffic.collective_retries += 1
            self.traffic.retry_seconds += cost
            if tracer is not None:
                tracer.instant(
                    "fault.collective_retry", "resilience",
                    attempt=attempt, cost=cost, group=len(ranks),
                )

    def _collective(
        self, ranks: list[int], duration: float, account: str
    ) -> CollectiveResult:
        """Common synchronizing pattern: start when the *last* member's CPU
        is free, run ``duration``, everyone exits together."""
        self._check_group(ranks)
        if self.injector is not None:
            self._inject(ranks, duration)
        start = max(self.clocks[r].cpu.free_at for r in ranks)
        end = start + duration
        for r in ranks:
            self.clocks[r].cpu.schedule(start, duration, account)
        self.traffic.collective_calls += 1
        return CollectiveResult(start, end)

    def broadcast(
        self, ranks: list[int], nbytes: int, account: str = "summa_bcast"
    ) -> CollectiveResult:
        """Charge a broadcast of ``nbytes`` within ``ranks``.

        Returns the ``(start, end)`` interval.  Volume counts payload once
        per *receiving* rank (what the wires carry in a binomial tree).
        """
        if nbytes < 0:
            raise CommunicatorError(f"negative payload: {nbytes}")
        duration = self.spec.bcast_time(nbytes, len(ranks))
        result = self._collective(ranks, duration, account)
        self.traffic.bytes_broadcast += nbytes * max(0, len(ranks) - 1)
        return result

    def allreduce(
        self, ranks: list[int], nbytes: int, account: str = "allreduce"
    ) -> CollectiveResult:
        """Charge a recursive-doubling allreduce of ``nbytes``."""
        if nbytes < 0:
            raise CommunicatorError(f"negative payload: {nbytes}")
        duration = self.spec.allreduce_time(nbytes, len(ranks))
        result = self._collective(ranks, duration, account)
        self.traffic.bytes_reduced += nbytes * max(0, len(ranks) - 1)
        return result

    def alltoall(
        self, ranks: list[int], nbytes_per_pair: int, account: str = "exchange"
    ) -> CollectiveResult:
        """Charge a pairwise all-to-all of ``nbytes_per_pair`` per pair."""
        if nbytes_per_pair < 0:
            raise CommunicatorError(f"negative payload: {nbytes_per_pair}")
        duration = self.spec.alltoall_time(nbytes_per_pair, len(ranks))
        result = self._collective(ranks, duration, account)
        n = len(ranks)
        self.traffic.bytes_exchanged += nbytes_per_pair * n * max(0, n - 1)
        return result

    def p2p(
        self, src: int, dst: int, nbytes: int, account: str = "summa_p2p"
    ) -> CollectiveResult:
        """Charge one point-to-point message ``src → dst``.

        The hybrid transport's alternative to a stage broadcast: instead
        of pushing the whole slab down a binomial tree, the owner sends
        each receiver only the column support it needs.  Rendezvous
        semantics — sender and receiver synchronize for the α-β transfer
        duration — so successive sends from one root serialize on its
        injection port, exactly the pessimism the selector prices in.
        Faults draw from the same "comm" stream as the collectives.
        """
        if nbytes < 0:
            raise CommunicatorError(f"negative payload: {nbytes}")
        duration = self.spec.p2p_time(nbytes)
        result = self._collective([src, dst], duration, account)
        self.traffic.bytes_exchanged += nbytes
        return result

    # -- asynchronous broadcasts (static pipeline schedule) --------------

    def link(self, channel: str) -> ResourceTimeline:
        """The link timeline for ``channel``, created on first use."""
        timeline = self.links.get(channel)
        if timeline is None:
            timeline = self.links[channel] = ResourceTimeline()
        return timeline

    def broadcast_async(
        self,
        ranks: list[int],
        nbytes: int,
        account: str = "summa_bcast",
        *,
        channel: str,
        ready_at: float = 0.0,
        trace_attrs: dict | None = None,
    ) -> AsyncBroadcast:
        """Post a broadcast of ``nbytes`` on ``channel`` without blocking.

        The transfer occupies the channel's link timeline starting at
        ``max(ready_at, link.free_at)`` — it never charges the member
        CPUs, so compute already scheduled on them proceeds concurrently.
        Consumers gate on the returned handle's ``end``.  ``ready_at`` is
        the scheduler's gate (in the static schedule: the time stage
        ``s-2``'s slabs were consumed, which bounds the double buffer to
        two live stages).

        Time, traffic, and fault semantics match :meth:`broadcast`: same
        α-β duration, same byte counters, same injector draw order — so
        with a window of 1 (``ready_at`` = the members' synchronizing
        start) the handle's interval equals the synchronous collective's.
        ``trace_attrs`` are added to the link span a tracer records (the
        engine passes the phase and stage that posted the transfer).
        """
        if nbytes < 0:
            raise CommunicatorError(f"negative payload: {nbytes}")
        self._check_group(ranks)
        duration = self.spec.bcast_time(nbytes, len(ranks))
        link = self.link(channel)
        if self.injector is not None:
            self._inject(ranks, duration, link)
        start = max(ready_at, link.free_at)
        end = link.schedule(start, duration, account)
        self.traffic.collective_calls += 1
        self.traffic.bytes_broadcast += nbytes * max(0, len(ranks) - 1)
        handle = AsyncBroadcast(
            channel=channel, start=start, end=end, nbytes=nbytes
        )
        from ..trace import current_tracer

        tracer = current_tracer()
        if tracer is not None:
            tracer.event_span(
                "broadcast.async", "comm",
                lane=f"link:{channel}", t0_sim=start, t1_sim=end,
                nbytes=nbytes, group=len(ranks), **(trace_attrs or {}),
            )
        return handle

    def p2p_chain_async(
        self,
        ranks: list[int],
        payloads: list[int],
        account: str = "summa_p2p",
        *,
        channel: str,
        ready_at: float = 0.0,
        trace_attrs: dict | None = None,
    ) -> AsyncBroadcast:
        """Post a serialized chain of point-to-point sends on ``channel``.

        The hybrid transport's async form: the root pushes one tailored
        payload per receiver through its injection port, so the chain
        occupies the link for the *sum* of the per-message α-β times
        (the same total :meth:`p2p` would charge synchronously).  Fault
        semantics mirror :meth:`broadcast_async`: one draw from the
        "comm" stream per posted chain, charged to the link; so do
        ``trace_attrs``.
        """
        self._check_group(ranks)
        for nbytes in payloads:
            if nbytes < 0:
                raise CommunicatorError(f"negative payload: {nbytes}")
        duration = sum(self.spec.p2p_time(b) for b in payloads)
        link = self.link(channel)
        if self.injector is not None:
            self._inject(ranks, duration, link)
        start = max(ready_at, link.free_at)
        end = link.schedule(start, duration, account)
        total = sum(payloads)
        self.traffic.collective_calls += 1
        self.traffic.bytes_exchanged += total
        handle = AsyncBroadcast(
            channel=channel, start=start, end=end, nbytes=total
        )
        from ..trace import current_tracer

        tracer = current_tracer()
        if tracer is not None:
            tracer.event_span(
                "p2p.async", "comm",
                lane=f"link:{channel}", t0_sim=start, t1_sim=end,
                nbytes=total, group=len(ranks), **(trace_attrs or {}),
            )
        return handle

    def barrier(self, ranks: list[int] | None = None) -> float:
        """Synchronize ``ranks`` (default: all) to their common maximum."""
        ranks = list(range(self.size)) if ranks is None else ranks
        self._check_group(ranks)
        t = max(self.clocks[r].now for r in ranks)
        for r in ranks:
            self.clocks[r].barrier_to(t)
        return t

    # -- reporting -------------------------------------------------------

    def elapsed(self) -> float:
        """The run's makespan: the latest rank clock.

        Links are intentionally excluded: every broadcast feeding real
        work is absorbed into the rank clocks when its consumer gates on
        the handle, so only trailing transfers nobody waits for (posted
        broadcasts of *empty* blocks) can outlive the clocks — they drain
        in the background, exactly like pending sends at finalize.
        """
        return max(c.now for c in self.clocks)

    def link_busy_seconds(self) -> float:
        """Total seconds the async-broadcast links carried traffic."""
        return sum(link.busy_total() for link in self.links.values())

    def account_means(self) -> dict[str, float]:
        """Mean busy seconds per account across ranks (stage breakdowns).

        Link traffic is folded in (divided by the rank count like any
        other account) so ``summa_bcast`` stays populated when the static
        schedule moves broadcasts off the member CPUs.
        """
        totals: dict[str, float] = {}
        for c in self.clocks:
            for k, v in c.stage_report().items():
                totals[k] = totals.get(k, 0.0) + v
        for link in self.links.values():
            for k, v in link.busy.items():
                totals[k] = totals.get(k, 0.0) + v
        return {k: v / self.size for k, v in totals.items()}

    def idle_times(self) -> tuple[float, float]:
        """(mean CPU idle, mean GPU idle) seconds across ranks."""
        cpu = sum(c.cpu.idle for c in self.clocks) / self.size
        gpu = sum(c.gpu.idle for c in self.clocks) / self.size
        return cpu, gpu

    def window_idle_times(self) -> tuple[float, float]:
        """(mean CPU, mean GPU) idle within each resource's active window.

        This is Table V's notion of idleness: waiting *between* uses of the
        resource, not the lead/tail time where it has no role at all.
        """
        cpu = sum(c.cpu.window_idle() for c in self.clocks) / self.size
        gpu = sum(c.gpu.window_idle() for c in self.clocks) / self.size
        return cpu, gpu
