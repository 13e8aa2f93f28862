"""Deterministic fault injection for the simulated HipMCL stack.

A :class:`FaultPlan` is a *seeded description* of which transient faults a
run should experience; a :class:`FaultInjector` executes the plan.  Every
fault site class draws from its own child RNG stream (spawned with the
:func:`repro.util.rng.spawn_streams` discipline), so

* the same plan replayed against the same workload injects the *same*
  faults at the same sites, and
* adding or recovering faults at one site never perturbs the draws of
  another site.

The injector is wired into three layers:

* :class:`repro.mpi.comm.VirtualComm` — transient collective failures
  (retried with backoff, charged to the simulated clock) and straggler
  delays before a collective;
* :func:`repro.summa.engine.summa_multiply` — GPU allocation and launch
  faults, CPU hash-table overflows (recovered by the kernel degradation
  ladder) and merge-memory overruns (recovered by the SpKAdd strategy
  ladder).  These are drawn once per multiply, before it is priced, as
  the multiply's fault schedule (``_PricePlan.draw_faults``), in the
  order the pricing walk meets them;
* :func:`repro.spgemm.estimator.estimate_nnz` — Cohen bound misses
  (recovered by symbolic fallback) and silent underestimates (recovered
  by splitting the expansion into more phases after the overrun).

Recovery never changes numerics — the engine computes products with the
same kernels-of-record regardless of where time is charged — which is
what makes the headline guarantee testable: an injected-and-recovered run
is bit-identical to the fault-free run in labels and per-iteration
numeric records, differing only in simulated time (see
:mod:`repro.resilience.equivalence`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..errors import CommunicatorError, EstimationError, InjectedFault
from ..util.rng import spawn_streams


class InjectedCommFailure(CommunicatorError, InjectedFault):
    """A collective failed transiently (injected)."""


class InjectedEstimationError(EstimationError, InjectedFault):
    """The Cohen estimator's bound check failed (injected)."""


#: One RNG stream per site class, in this fixed order.  New sites append
#: at the end: ``spawn_streams`` keys each child off its index, so the
#: existing sites' draws are untouched by the addition.
FAULT_SITES = (
    "comm",
    "straggler",
    "gpu_alloc",
    "gpu_launch",
    "cpu_kernel",
    "estimator",
    "merge",
)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the transient faults to inject into one run.

    Rates are per-opportunity probabilities: per collective for ``comm``
    and ``straggler``, per device allocation / launch for the GPU sites,
    per CPU-hash multiply for ``cpu_kernel``, per probabilistic
    estimation pass for the estimator sites.
    """

    seed: int = 0
    #: Probability a collective suffers >= 1 transient failure; repeated
    #: failures follow a geometric tail capped at ``comm_max_failures``.
    comm_failure_rate: float = 0.0
    comm_max_failures: int = 2
    #: Probability one member of a collective straggles, and the delay
    #: range (uniform in [0.5, 1.5] x ``straggler_delay_s``).
    straggler_rate: float = 0.0
    straggler_delay_s: float = 5e-4
    gpu_alloc_rate: float = 0.0
    gpu_launch_rate: float = 0.0
    #: Probability a CPU hash multiply aborts (simulated host hash-table
    #: overflow), demoting to the heap kernel.
    cpu_kernel_rate: float = 0.0
    #: Probability the Cohen bound check fails (detected -> symbolic
    #: fallback) / the estimate silently undershoots (-> overrun ->
    #: phase-split recovery), and the silent deflation factor.
    estimator_miss_rate: float = 0.0
    estimator_underestimate_rate: float = 0.0
    estimator_deflation: float = 0.25
    #: Probability one merge event overruns its memory (simulated SpKAdd
    #: accumulator overflow), demoting the merge strategy ladder.
    merge_overrun_rate: float = 0.0

    def __post_init__(self):
        for name in (
            "comm_failure_rate", "straggler_rate", "gpu_alloc_rate",
            "gpu_launch_rate", "cpu_kernel_rate", "estimator_miss_rate",
            "estimator_underestimate_rate", "merge_overrun_rate",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if (
            self.estimator_miss_rate + self.estimator_underestimate_rate
            > 1.0
        ):
            raise ValueError(
                "estimator_miss_rate + estimator_underestimate_rate "
                "must not exceed 1"
            )
        if self.comm_max_failures < 1:
            raise ValueError(
                f"comm_max_failures must be >= 1: {self.comm_max_failures}"
            )
        if self.straggler_delay_s < 0:
            raise ValueError(
                f"straggler_delay_s must be >= 0: {self.straggler_delay_s}"
            )
        if not (0.0 < self.estimator_deflation <= 1.0):
            raise ValueError(
                "estimator_deflation must lie in (0, 1], got "
                f"{self.estimator_deflation!r}"
            )

    @classmethod
    def chaos(cls, seed: int = 0, intensity: float = 0.2) -> "FaultPlan":
        """A preset that exercises every site class at ``intensity``."""
        if not (0.0 <= intensity <= 1.0):
            raise ValueError(f"intensity must lie in [0, 1]: {intensity}")
        return cls(
            seed=seed,
            comm_failure_rate=intensity,
            straggler_rate=intensity,
            gpu_alloc_rate=intensity,
            gpu_launch_rate=intensity,
            cpu_kernel_rate=intensity,
            estimator_miss_rate=min(0.5, intensity),
            estimator_underestimate_rate=min(0.5, intensity),
            merge_overrun_rate=intensity,
        )

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    One injector serves one run; its per-site streams advance with each
    query, so reuse across runs would change which faults fire.  The
    per-site injection counts are kept in ``injected``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        streams = spawn_streams(plan.seed, len(FAULT_SITES))
        self._rng = dict(zip(FAULT_SITES, streams))
        self.injected: Counter = Counter()

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def counts(self) -> dict[str, int]:
        """Per-site injection counts (a plain-dict snapshot)."""
        return dict(self.injected)

    # -- comm sites ------------------------------------------------------

    def collective_failures(self) -> int:
        """How many transient failures the next collective suffers."""
        rng, plan = self._rng["comm"], self.plan
        n = 0
        while (
            n < plan.comm_max_failures
            and rng.random() < plan.comm_failure_rate
        ):
            n += 1
        if n:
            self.injected["comm"] += n
        return n

    def straggler(self, nranks: int) -> tuple[int, float] | None:
        """``(member index, delay seconds)`` of the next collective's
        straggler, or ``None``."""
        rng, plan = self._rng["straggler"], self.plan
        if rng.random() >= plan.straggler_rate:
            return None
        idx = int(rng.integers(0, max(1, nranks)))
        delay = plan.straggler_delay_s * (0.5 + rng.random())
        self.injected["straggler"] += 1
        return idx, delay

    # -- pricing-pass sites: drawn per multiply, before it is priced ------

    def gpu_attempt(self, staged, capacity: int) -> str:
        """One offloaded multiply's device side: ``"ok"``, ``"injected"``
        or ``"oom"``.

        ``staged`` lists per device the bytes it holds once A, then B,
        then C are on it.  Device by device, each allocation draws an
        injected fault, then checks ``capacity``, and the launch draws
        one; the attempt stops at the first failure.
        """
        plan = self.plan
        alloc, launch = self._rng["gpu_alloc"], self._rng["gpu_launch"]
        for device in staged:
            for nbytes in device:
                if alloc.random() < plan.gpu_alloc_rate:
                    self.injected["gpu_alloc"] += 1
                    return "injected"
                if nbytes > capacity:
                    return "oom"
            if launch.random() < plan.gpu_launch_rate:
                self.injected["gpu_launch"] += 1
                return "injected"
        return "ok"

    def faults(self, site: str, n: int) -> np.ndarray:
        """Whether each of the next ``n`` opportunities of a one-draw
        site faults: ``"cpu_kernel"`` (a CPU-hash multiply aborts) or
        ``"merge"`` (a merge event overruns its memory).  One vector
        draw: ``Generator.random(n)`` yields the values of n scalar
        ``random()`` calls."""
        rate = {
            "cpu_kernel": self.plan.cpu_kernel_rate,
            "merge": self.plan.merge_overrun_rate,
        }[site]
        hits = self._rng[site].random(n) < rate
        count = int(np.count_nonzero(hits))
        if count:
            self.injected[site] += count
        return hits

    # -- estimator site --------------------------------------------------

    def estimator_fault(self) -> str | None:
        """``"bound-miss"`` (detected), ``"underestimate"`` (silent), or
        ``None`` for the next probabilistic estimation pass."""
        u = self._rng["estimator"].random()
        plan = self.plan
        if u < plan.estimator_miss_rate:
            self.injected["estimator_miss"] += 1
            return "bound-miss"
        if u < plan.estimator_miss_rate + plan.estimator_underestimate_rate:
            self.injected["estimator_underestimate"] += 1
            return "underestimate"
        return None


def as_injector(faults) -> FaultInjector | None:
    """Normalize a ``faults=`` argument: plan, injector, or ``None``."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return faults.injector()
    raise TypeError(
        f"faults must be a FaultPlan, FaultInjector, or None, "
        f"got {type(faults).__name__}"
    )
