"""The simulated GPU device: capacity-limited memory and transfer costs.

A :class:`GPUDevice` tracks live allocations in bytes against the V100-like
16 GB capacity from the :class:`~repro.machine.spec.MachineSpec`.  The
pipelined SUMMA sizes each stage's inputs + estimated output against the
device before offloading and falls back to the CPU kernel on a would-be
OOM — the failure-injection tests drive exactly that path with an
artificially small device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeviceMemoryError
from ..machine.spec import MachineSpec


@dataclass
class GPUDevice:
    """One virtual accelerator: a memory pool plus utilization counters.

    When ``injector`` (a :class:`repro.resilience.faults.FaultInjector`)
    is attached, allocations and kernel launches can fail transiently
    with the ``Injected*`` exception flavors; the SUMMA engine recovers
    by demoting along the kernel ladder (GPU → CPU).  Injected faults
    never corrupt the pool — a faulted allocation reserves nothing.
    """

    spec: MachineSpec
    index: int = 0
    capacity_bytes: int | None = None  # default: spec.gpu_memory_bytes
    _allocated: dict[str, int] = field(default_factory=dict)
    peak_bytes: int = 0
    kernel_launches: int = 0
    injector: object | None = None
    #: Running sum of the live allocations (kept by allocate/free/free_all).
    allocated_bytes: int = field(default=0, init=False)

    def __post_init__(self):
        if self.capacity_bytes is None:
            self.capacity_bytes = self.spec.gpu_memory_bytes
        if self.capacity_bytes <= 0:
            raise ValueError(
                f"device capacity must be positive: {self.capacity_bytes}"
            )

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, tag: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``tag``; raises on exhaustion.

        Tags are unique handles (double-allocating a live tag is a bug in
        the caller, not an OOM, and raises ``ValueError``).
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if tag in self._allocated:
            raise ValueError(f"allocation tag {tag!r} already live")
        if self.injector is not None and self.injector.gpu_alloc_fault():
            from ..resilience.faults import InjectedDeviceMemoryError

            raise InjectedDeviceMemoryError(
                f"GPU {self.index}: injected transient fault allocating "
                f"{nbytes} B under {tag!r}"
            )
        if nbytes > self.free_bytes:
            raise DeviceMemoryError(
                f"GPU {self.index}: allocating {nbytes} B under {tag!r} "
                f"exceeds capacity ({self.free_bytes} B free of "
                f"{self.capacity_bytes})"
            )
        self._allocated[tag] = nbytes
        self.allocated_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)

    def free(self, tag: str) -> None:
        """Release the allocation held under ``tag``."""
        try:
            self.allocated_bytes -= self._allocated.pop(tag)
        except KeyError:
            raise ValueError(f"allocation tag {tag!r} not live") from None

    def free_all(self) -> None:
        """Release everything (end of a SUMMA stage)."""
        self._allocated.clear()
        self.allocated_bytes = 0

    def fits(self, nbytes: int) -> bool:
        """Would an ``nbytes`` allocation succeed right now?"""
        return nbytes <= self.free_bytes

    def stage_multiply(self, a_bytes: int, b_bytes: int, c_bytes: int) -> None:
        """One offloaded multiply's device side: allocate A, B and C, count
        the launch, free everything.  Raises like :meth:`allocate` and
        :meth:`count_launch`; the device is left empty either way."""
        total = a_bytes + b_bytes + c_bytes
        if self.injector is None and not self._allocated and (
            total <= self.capacity_bytes
        ):
            # Nothing can fail: the same peak and launch count without
            # the per-tag bookkeeping.
            self.peak_bytes = max(self.peak_bytes, total)
            self.kernel_launches += 1
            return
        try:
            self.allocate("A", a_bytes)
            self.allocate("B", b_bytes)
            self.allocate("C", c_bytes)
            self.count_launch()
        finally:
            self.free_all()

    def count_launch(self) -> None:
        if self.injector is not None and self.injector.gpu_launch_fault():
            from ..resilience.faults import InjectedKernelLaunchError

            raise InjectedKernelLaunchError(
                f"GPU {self.index}: injected transient kernel launch fault"
            )
        self.kernel_launches += 1


def split_columns(ncols: int, ndevices: int) -> list[tuple[int, int]]:
    """Near-even half-open column ranges, one slab of B per device.

    §III-A's node configuration: one process commands all of the node's
    GPUs, copies A to every device and splits B's columns evenly, so each
    device produces a disjoint column slab of C.
    """
    if ndevices <= 0:
        raise ValueError(f"need at least one device, got {ndevices}")
    base, extra = divmod(ncols, ndevices)
    bounds = []
    lo = 0
    for d in range(ndevices):
        hi = lo + base + (1 if d < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds
