"""Hybrid SpGEMM kernel selection (paper §III and §VII-B).

Two metrics drive the choice:

* ``flops`` decides *where*: below a saturation threshold the GPU's
  parallelism cannot be filled and the CPU wins;
* ``cf`` decides *which*: at large compression factors hash-table kernels
  (``cpu-hash`` on CPU, ``nsparse`` on GPU) dominate; at small cf the
  heap (CPU) or row-merging ``rmerge2`` (GPU) are slightly better.

The thresholds live in a :class:`SelectionPolicy` so the machine model can
calibrate them; the defaults reproduce the orderings of Fig. 4.

The choice is a price, not a code path: the SUMMA engine computes every
product with :func:`~repro.spgemm.esc.spgemm_esc` and charges the chosen
kind's modelled cost (:mod:`repro.machine.spec`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .metrics import WorkProfile


class KernelKind(enum.Enum):
    """The SpGEMM implementations HipMCL can dispatch to."""

    CPU_HEAP = "cpu-heap"
    CPU_HASH = "cpu-hash"
    GPU_BHSPARSE = "bhsparse"
    GPU_NSPARSE = "nsparse"
    GPU_RMERGE2 = "rmerge2"

    @property
    def on_gpu(self) -> bool:
        return self in (
            KernelKind.GPU_BHSPARSE,
            KernelKind.GPU_NSPARSE,
            KernelKind.GPU_RMERGE2,
        )


@dataclass(frozen=True)
class SelectionPolicy:
    """Thresholds of the hybrid recipe.

    ``gpu_min_flops``: minimum flops for a local multiply to saturate the
    device (below it the kernel stays on CPU even when GPUs exist).
    ``gpu_cf_nsparse_min``: cf at/above which nsparse is chosen on GPU,
    below it rmerge2.
    ``cpu_cf_hash_min``: cf at/above which the hash kernel is chosen on
    CPU, below it the heap (§VI: "for small cf values the heaps show
    themselves to be slightly more effective").
    """

    gpu_min_flops: float = 2.0e5
    gpu_cf_nsparse_min: float = 4.0
    cpu_cf_hash_min: float = 2.0

    def __post_init__(self):
        if self.gpu_min_flops < 0:
            raise ValueError(f"gpu_min_flops must be >= 0: {self.gpu_min_flops}")
        if self.gpu_cf_nsparse_min < 1.0 or self.cpu_cf_hash_min < 1.0:
            raise ValueError("cf thresholds must be >= 1 (cf is never below 1)")


DEFAULT_POLICY = SelectionPolicy()


def select_kernel(
    profile: WorkProfile,
    *,
    gpu_available: bool = True,
    policy: SelectionPolicy = DEFAULT_POLICY,
) -> KernelKind:
    """Pick the kernel for one local SpGEMM from its work profile.

    The decision procedure is the paper's: flops gates CPU vs GPU, cf picks
    the implementation on the chosen side.
    """
    return kernel_for_work(
        profile.flops, profile.cf, gpu_available=gpu_available, policy=policy
    )


def kernel_for_work(
    flops: float,
    cf: float,
    *,
    gpu_available: bool = True,
    policy: SelectionPolicy = DEFAULT_POLICY,
) -> KernelKind:
    """:func:`select_kernel` from the two numbers it reads — what the SUMMA
    engine calls per stage product, without building a profile."""
    if gpu_available and flops >= policy.gpu_min_flops:
        if cf >= policy.gpu_cf_nsparse_min:
            return KernelKind.GPU_NSPARSE
        return KernelKind.GPU_RMERGE2
    if cf >= policy.cpu_cf_hash_min:
        return KernelKind.CPU_HASH
    return KernelKind.CPU_HEAP


#: Every kernel kind, indexed by the codes :func:`kernels_for_work` returns.
KERNEL_KINDS = tuple(KernelKind)


def kernels_for_work(
    flops: np.ndarray,
    cf: np.ndarray,
    *,
    gpu_available: bool = True,
    policy: SelectionPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """:func:`kernel_for_work` elementwise over arrays of work: each
    pick as its index into :data:`KERNEL_KINDS`."""
    code = {kind: n for n, kind in enumerate(KERNEL_KINDS)}
    on_gpu = gpu_available & (np.asarray(flops) >= policy.gpu_min_flops)
    return np.select(
        [
            on_gpu & (cf >= policy.gpu_cf_nsparse_min),
            on_gpu,
            cf >= policy.cpu_cf_hash_min,
        ],
        [
            code[KernelKind.GPU_NSPARSE],
            code[KernelKind.GPU_RMERGE2],
            code[KernelKind.CPU_HASH],
        ],
        code[KernelKind.CPU_HEAP],
    )


#: Graceful-degradation ladder: where a faulted kernel falls back to.
#: Device faults demote any GPU kernel to the CPU hash kernel (the
#: paper's §III memory rationale — host memory is an order of magnitude
#: larger); a faulted hash kernel (host hash-table overflow) demotes to
#: the heap, which allocates only O(nnz per column).  The heap is the
#: floor: ``degrade_kernel`` returns ``None`` below it.
DEGRADATION_LADDER = {
    KernelKind.GPU_NSPARSE: KernelKind.CPU_HASH,
    KernelKind.GPU_RMERGE2: KernelKind.CPU_HASH,
    KernelKind.GPU_BHSPARSE: KernelKind.CPU_HASH,
    KernelKind.CPU_HASH: KernelKind.CPU_HEAP,
    KernelKind.CPU_HEAP: None,
}


def degrade_kernel(kind: KernelKind) -> KernelKind | None:
    """The next rung down the ladder after ``kind`` faults (or ``None``)."""
    return DEGRADATION_LADDER[kind]
