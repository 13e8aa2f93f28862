"""The §III-A column split of B across one node's GPUs.

``repro.summa.engine._PricePlan`` prices each offloaded multiply at this
split, computed for every phase at once with the same ``divmod``; this
function is the tests' oracle for it.  A share that does not fit
``MachineSpec.gpu_memory_bytes`` falls back to the CPU kernel.
"""

from __future__ import annotations


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
