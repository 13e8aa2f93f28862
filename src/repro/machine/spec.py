"""Machine specification: a Summit-like virtual node and its cost model.

The paper's evaluation machine is ORNL Summit: per node two 22-core POWER9
CPUs (the runs use 40 worker threads), six 16 GB V100 GPUs, and a
dual-rail EDR InfiniBand fat tree.  We cannot run on Summit, so every
*time* in this library is produced by the rate model below applied to
**exactly counted work** (flops, bytes, merge comparisons, key operations).
The functional results (matrices, clusters) are always real.

Calibration: the constants are set once, here, to reproduce the paper's
*ratios*, not its absolute seconds.  Because the catalog workloads are
~1/1000-linear-scale analogs, their flops-per-communicated-byte is far
below the real networks'; the rates below are therefore *scaled-Summit*
values (compute slowed relative to the network) chosen so that the
measured stage ratios of Table II / Fig. 5 hold on the catalog networks:
SpGEMM : bcast : merge : estimation : prune ≈ 1 : 0.2-0.45 : 0.2 :
0.75-0.9 : 0.15 at 16 nodes, with broadcast staying nearly flat as nodes
grow.  The library-vs-library orderings are also encoded —

* ``nsparse``  ≈ 3.3× faster than ``cpu-hash`` at large cf (Fig. 4),
* ``bhsparse`` ≈ 2.4×, ``rmerge2`` ≈ 1.1×,
* ``rmerge2`` edges out ``nsparse`` below cf ≈ 2 (§VII-B),
* heap beats hash only at small cf (§VI),
* probabilistic estimation beats symbolic early (large cf) and loses
  late (small cf) in an MCL run (Fig. 6, bottom).

Every rate is "whole resource" (one MPI process with all its threads, or
one GPU); thread scaling between the thread-based and process-based node
configurations (Fig. 5) is handled by the efficiency knobs at the bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..spgemm.hybrid import KERNEL_KINDS, KernelKind, SelectionPolicy


@dataclass(frozen=True)
class MachineSpec:
    """Rates and capacities of one virtual pre-exascale node.

    All throughputs are in operations (or bytes) per simulated second.
    """

    # -- node shape (Summit values) ------------------------------------
    cores_per_node: int = 40
    gpus_per_node: int = 6
    gpu_memory_bytes: int = 16 * 2**30
    host_memory_bytes: int = 512 * 2**30

    # -- CPU rates, per core --------------------------------------------
    cpu_heap_ops_per_core: float = 1.5e6  # heap comparisons/s
    cpu_hash_ops_per_core: float = 4.2e6  # hash probes+updates/s
    cpu_merge_ops_per_core: float = 9.0e6  # merge comparisons/s
    cpu_symbolic_ops_per_core: float = 1.0e6  # symbolic flops/s
    cpu_estimator_ops_per_core: float = 3.0e6  # key gathers+mins/s
    cpu_prune_entries_per_core: float = 70e6  # entries scanned/s
    cpu_topk_ops_per_core: float = 30e6  # selection ops/s
    cpu_inflate_entries_per_core: float = 57e6  # pow+scale/s
    cpu_spa_ops_per_core: float = 3.8e6

    # -- GPU rates, per device (flops/s at asymptotic cf) ------------------
    gpu_nsparse_peak: float = 92e6
    gpu_nsparse_cf0: float = 8.0  # rate = peak * cf/(cf+cf0)
    gpu_bhsparse_peak: float = 66e6
    gpu_bhsparse_cf0: float = 6.0
    gpu_rmerge2_peak: float = 22e6
    gpu_rmerge2_cf0: float = 0.4
    gpu_launch_overhead_s: float = 1e-6  # per kernel launch + setup
    gpu_preprocess_bytes_per_s: float = 60e9  # CSR massaging on device
    #: Key gathers+mins/s per device for the GPU-ported probabilistic
    #: estimator (the paper's §VII-E future work) — irregular gathers, so
    #: well below the SpGEMM rates.
    gpu_estimator_ops_per_device: float = 40e6

    # -- transfers & network ------------------------------------------------
    h2d_bytes_per_s: float = 40e9  # NVLink host→device
    d2h_bytes_per_s: float = 40e9
    transfer_latency_s: float = 1e-6
    net_alpha_s: float = 2e-6  # per-message latency
    net_bytes_per_s: float = 5e9  # per-process injection bandwidth

    # -- parallel efficiency knobs ------------------------------------------
    # Thread scaling is sublinear; efficiency(t) = t**(-thread_scaling_loss).
    thread_scaling_loss: float = 0.10
    # Pruning is memory-bandwidth bound and NUMA-sensitive: one fat process
    # spanning both sockets loses locality, many slim processes do not.
    # This reproduces Fig. 5's "process-based wins only the pruning stage".
    prune_numa_penalty_threaded: float = 0.65
    # One-process-per-GPU management (§III-A's alternative) loses part of
    # each slim process's cores to MPI progress/service and duplicated
    # ghost data — the reason Fig. 5's thread-based setting wins the
    # compute stages.  Applied as a derate on usable threads per process.
    multiprocess_thread_derate: float = 0.80

    # -- hybrid selection thresholds (exposed to the selector) ----------------
    gpu_min_flops: float = 5.0e3
    gpu_cf_nsparse_min: float = 2.0
    cpu_cf_hash_min: float = 2.0

    # ---------------------------------------------------------------------
    def selection_policy(self) -> SelectionPolicy:
        """The hybrid-kernel thresholds this machine implies."""
        return SelectionPolicy(
            gpu_min_flops=self.gpu_min_flops,
            gpu_cf_nsparse_min=self.gpu_cf_nsparse_min,
            cpu_cf_hash_min=self.cpu_cf_hash_min,
        )

    def thread_efficiency(self, threads: int) -> float:
        """Fraction of linear speedup retained at ``threads`` threads."""
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        return threads ** (-self.thread_scaling_loss)

    def cpu_rate(self, per_core: float, threads: int) -> float:
        """Aggregate rate of a process running ``threads`` threads."""
        return per_core * threads * self.thread_efficiency(threads)

    # -- per-operation times -----------------------------------------------

    def gpu_spgemm_rate(self, kind: KernelKind, cf: float) -> float:
        """Effective flops/s of one GPU for the given library at ``cf``.

        The saturating ``cf/(cf+cf0)`` shape models how hash-style kernels
        (nsparse) need compression to amortize their table traffic while
        row-merge kernels (rmerge2) are nearly cf-flat; the constants put
        the rmerge2/nsparse crossover at small cf as in §VII-B.
        """
        cf = max(cf, 1.0)
        if kind is KernelKind.GPU_NSPARSE:
            return self.gpu_nsparse_peak * cf / (cf + self.gpu_nsparse_cf0)
        if kind is KernelKind.GPU_BHSPARSE:
            return self.gpu_bhsparse_peak * cf / (cf + self.gpu_bhsparse_cf0)
        if kind is KernelKind.GPU_RMERGE2:
            return self.gpu_rmerge2_peak * cf / (cf + self.gpu_rmerge2_cf0)
        raise ValueError(f"{kind} is not a GPU kernel")

    def gpu_spgemm_time(
        self, kind: KernelKind, flops: float, cf: float, input_bytes: int
    ) -> float:
        """Seconds one GPU takes for a local SpGEMM (kernel only, no PCIe)."""
        if flops <= 0:
            return self.gpu_launch_overhead_s
        return (
            self.gpu_launch_overhead_s
            + input_bytes / self.gpu_preprocess_bytes_per_s
            + flops / self.gpu_spgemm_rate(kind, cf)
        )

    def gpu_spgemm_times(
        self,
        kinds: np.ndarray,
        flops: np.ndarray,
        cf: np.ndarray,
        input_bytes: np.ndarray,
    ) -> np.ndarray:
        """:meth:`gpu_spgemm_time` elementwise over broadcastable arrays;
        ``kinds`` holds :data:`~repro.spgemm.hybrid.KERNEL_KINDS` codes.

        The same IEEE operations in the same association, so every element
        equals the scalar price bit for bit.  An element whose kind is not
        a GPU kernel prices as NaN.
        """
        which = [
            kinds == KERNEL_KINDS.index(kind)
            for kind in (KernelKind.GPU_NSPARSE, KernelKind.GPU_BHSPARSE,
                         KernelKind.GPU_RMERGE2)
        ]
        peak = np.select(
            which,
            [self.gpu_nsparse_peak, self.gpu_bhsparse_peak,
             self.gpu_rmerge2_peak],
            np.nan,
        )
        cf0 = np.select(
            which,
            [self.gpu_nsparse_cf0, self.gpu_bhsparse_cf0,
             self.gpu_rmerge2_cf0],
            np.nan,
        )
        cf = np.maximum(cf, 1.0)
        rate = peak * cf / (cf + cf0)
        return np.where(
            flops <= 0,
            self.gpu_launch_overhead_s,
            self.gpu_launch_overhead_s
            + input_bytes / self.gpu_preprocess_bytes_per_s
            + flops / rate,
        )

    def cpu_spgemm_time(self, kind: KernelKind, ops: float, threads: int) -> float:
        """Seconds a ``threads``-thread process takes for a CPU SpGEMM,
        where ``ops`` is the kernel-specific operation count (heap
        comparisons or hash probes — see :mod:`repro.spgemm`)."""
        per_core = {
            KernelKind.CPU_HEAP: self.cpu_heap_ops_per_core,
            KernelKind.CPU_HASH: self.cpu_hash_ops_per_core,
        }.get(kind)
        if per_core is None:
            raise ValueError(f"{kind} is not a CPU kernel")
        return ops / self.cpu_rate(per_core, threads)

    def h2d_time(self, nbytes: int) -> float:
        """Host→device transfer seconds."""
        return self.transfer_latency_s + nbytes / self.h2d_bytes_per_s

    def d2h_time(self, nbytes: int) -> float:
        """Device→host transfer seconds."""
        return self.transfer_latency_s + nbytes / self.d2h_bytes_per_s

    def bcast_time(self, nbytes: int, group: int) -> float:
        """Binomial-tree broadcast of ``nbytes`` to ``group`` processes."""
        if group <= 1:
            return 0.0
        hops = math.ceil(math.log2(group))
        return hops * (self.net_alpha_s + nbytes / self.net_bytes_per_s)

    def p2p_time(self, nbytes: int) -> float:
        """One point-to-point message of ``nbytes`` (rendezvous α-β)."""
        return self.net_alpha_s + nbytes / self.net_bytes_per_s

    def allreduce_time(self, nbytes: int, group: int) -> float:
        """Recursive-doubling allreduce (used by convergence checks)."""
        if group <= 1:
            return 0.0
        hops = math.ceil(math.log2(group))
        return hops * (self.net_alpha_s + 2 * nbytes / self.net_bytes_per_s)

    def alltoall_time(self, nbytes_per_pair: int, group: int) -> float:
        """Pairwise-exchange all-to-all (top-k candidate exchange)."""
        if group <= 1:
            return 0.0
        return (group - 1) * (
            self.net_alpha_s + nbytes_per_pair / self.net_bytes_per_s
        )

    def merge_time(self, ops: float, threads: int) -> float:
        """Seconds to execute ``ops`` merge comparisons on the CPU."""
        return ops / self.cpu_rate(self.cpu_merge_ops_per_core, threads)

    def symbolic_time(self, flops: float, threads: int) -> float:
        """Seconds for an exact symbolic SpGEMM pass of ``flops`` work."""
        return flops / self.cpu_rate(self.cpu_symbolic_ops_per_core, threads)

    def estimator_time(self, ops: float, threads: int) -> float:
        """Seconds for a probabilistic estimation of ``ops`` key updates."""
        return ops / self.cpu_rate(self.cpu_estimator_ops_per_core, threads)

    def prune_time(self, entries: int, threads: int, *, threaded_node: bool) -> float:
        """Seconds to threshold-scan ``entries``.

        ``threaded_node`` applies the NUMA penalty of the one-fat-process
        configuration (Fig. 5's only process-based win).
        """
        rate = self.cpu_rate(self.cpu_prune_entries_per_core, threads)
        if threaded_node:
            rate *= self.prune_numa_penalty_threaded
        return entries / rate

    def topk_time(self, entries: int, k: int, threads: int) -> float:
        """Seconds to select top-k within columns holding ``entries`` total."""
        if entries <= 0:
            return 0.0
        work = entries * max(1.0, math.log2(max(k, 2)))
        return work / self.cpu_rate(self.cpu_topk_ops_per_core, threads)

    def inflate_time(self, entries: int, threads: int) -> float:
        """Seconds for the Hadamard power + renormalization of ``entries``."""
        return entries / self.cpu_rate(self.cpu_inflate_entries_per_core, threads)

    def with_overrides(self, **kwargs) -> "MachineSpec":
        """Copy with selected fields replaced (calibration hooks)."""
        return replace(self, **kwargs)


#: The default virtual machine used throughout the benchmarks.
SUMMIT_LIKE = MachineSpec()

#: A Cori-KNL-like machine: the hardware the original HipMCL paper's
#: large runs used (Table IV's baseline rows).  68 slower cores, no GPUs,
#: Aries interconnect with lower per-process bandwidth.  Rates are scaled
#: relative to SUMMIT_LIKE with public per-core/interconnect ratios
#: (KNL core ≈ 0.45× a P9 core at irregular integer work; Aries per-node
#: injection ≈ 0.65× dual-rail EDR).
CORI_KNL_LIKE = MachineSpec(
    cores_per_node=68,
    gpus_per_node=0,
    gpu_memory_bytes=1,  # unused; no devices exist on this machine
    cpu_heap_ops_per_core=1.5e6 * 0.45,
    cpu_hash_ops_per_core=4.2e6 * 0.45,
    cpu_merge_ops_per_core=9.0e6 * 0.45,
    cpu_symbolic_ops_per_core=1.0e6 * 0.45,
    cpu_estimator_ops_per_core=3.0e6 * 0.45,
    cpu_prune_entries_per_core=70e6 * 0.45,
    cpu_topk_ops_per_core=30e6 * 0.45,
    cpu_inflate_entries_per_core=57e6 * 0.45,
    cpu_spa_ops_per_core=3.8e6 * 0.45,
    net_alpha_s=3e-6,
    net_bytes_per_s=0.65 * 5e9,
)
